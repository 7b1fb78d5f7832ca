#!/usr/bin/env bash
# Smoke-test the admission-control service end to end:
#   1. start `mpcp serve` on an ephemeral port,
#   2. submit K distinct systems twice over one connection: every reply
#      must be ok, and `query` must count exactly K misses then K hits,
#   3. probe it with one malformed request line (must answer a structured
#      parse error, not hang or drop the connection silently),
#   4. shut it down over the wire and require a clean exit.
# Uses bash /dev/tcp redirections so no netcat/curl is needed.
set -euo pipefail

MPCP_BIN=${MPCP_BIN:-target/release/mpcp}
K=8
OUT=$(mktemp)
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -f "$OUT"' EXIT

"$MPCP_BIN" serve --port 0 --workers 2 --queue 32 >"$OUT" 2>&1 &
SERVER_PID=$!

for _ in $(seq 1 100); do
    grep -q "listening on" "$OUT" && break
    kill -0 "$SERVER_PID" 2>/dev/null || { echo "FAIL: server died at startup"; cat "$OUT"; exit 1; }
    sleep 0.1
done
ADDR=$(sed -n 's/^mpcp-service listening on //p' "$OUT")
[ -n "$ADDR" ] || { echo "FAIL: no listening banner"; cat "$OUT"; exit 1; }
HOST=${ADDR%:*}
PORT=${ADDR##*:}
echo "serving on $HOST:$PORT"

echo "--- two laps of $K distinct submissions"
submit() { # one distinct two-processor system per index
    printf '{"op":"submit","session":"smoke","system":{"processors":["P0","P1"],"resources":["SG"],"tasks":[{"name":"a","processor":0,"period":%d,"body":[{"compute":10},{"critical":0,"body":[{"compute":2}]}]},{"name":"b","processor":1,"period":200,"body":[{"compute":20},{"critical":0,"body":[{"compute":5}]}]}]}}\n' $((100 + $1))
}
exec 3<>"/dev/tcp/$HOST/$PORT"
for LAP in 1 2; do
    for I in $(seq 1 "$K"); do
        submit "$I" >&3
        read -r -t 10 REPLY <&3 || { echo "FAIL: no reply to submission $I of lap $LAP"; exit 1; }
        case "$REPLY" in
            *'"ok":true'*) ;;
            *) echo "FAIL: submission $I of lap $LAP: $REPLY"; exit 1 ;;
        esac
    done
done
printf '{"op":"query"}\n' >&3
read -r -t 10 REPLY <&3 || { echo "FAIL: no reply to query"; exit 1; }
exec 3<&-
echo "$REPLY"
case "$REPLY" in
    *"\"cache\":{\"hits\":$K,\"misses\":$K,"*) ;;
    *) echo "FAIL: expected $K cache misses then $K hits"; exit 1 ;;
esac

echo "--- malformed request probe"
exec 3<>"/dev/tcp/$HOST/$PORT"
printf 'this is { not json\n' >&3
# The response must arrive promptly as a structured error line.
REPLY=$(timeout 10 head -n1 <&3) || { echo "FAIL: malformed probe hung"; exit 1; }
echo "$REPLY"
case "$REPLY" in
    *'"ok":false'*'"code":"parse"'*) ;;
    *) echo "FAIL: expected a structured parse error, got: $REPLY"; exit 1 ;;
esac
exec 3<&-

echo "--- shutdown"
exec 3<>"/dev/tcp/$HOST/$PORT"
printf '{"op":"shutdown"}\n' >&3
REPLY=$(timeout 10 head -n1 <&3) || { echo "FAIL: shutdown hung"; exit 1; }
echo "$REPLY"
exec 3<&-
for _ in $(seq 1 100); do
    kill -0 "$SERVER_PID" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "FAIL: server still running after shutdown request"
    exit 1
fi
wait "$SERVER_PID"
echo "service smoke test passed"
