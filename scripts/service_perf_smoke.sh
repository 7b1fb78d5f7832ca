#!/usr/bin/env bash
# Perf smoke for the reactor service: a pipelined loadgen burst must
# complete with zero errors and clear a deliberately conservative
# throughput floor. The floor (500 req/s) is an order-of-magnitude
# tripwire — release builds sustain thousands of req/s even on one
# shared vCPU — so it catches an accidental O(n) in the hot path or a
# reintroduced per-request allocation storm, not machine-to-machine
# noise. Real numbers come from the benchmark in benchmark/ (its
# serve-* workloads; see benchmark/README.md).
set -euo pipefail

MPCP_BIN=${MPCP_BIN:-target/release/mpcp}
FLOOR_RPS=${FLOOR_RPS:-500}
OUT=$(mktemp)
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -f "$OUT"' EXIT

"$MPCP_BIN" serve --port 0 --workers 4 --queue 64 --shards 2 >"$OUT" 2>&1 &
SERVER_PID=$!

for _ in $(seq 1 100); do
    grep -q "listening on" "$OUT" && break
    kill -0 "$SERVER_PID" 2>/dev/null || { echo "FAIL: server died at startup"; cat "$OUT"; exit 1; }
    sleep 0.1
done
ADDR=$(sed -n 's/^mpcp-service listening on //p' "$OUT")
[ -n "$ADDR" ] || { echo "FAIL: no listening banner"; cat "$OUT"; exit 1; }
echo "serving on $ADDR"

echo "--- pipelined uncached burst"
REPORT=$("$MPCP_BIN" loadgen --addr "$ADDR" --requests 1024 --connections 4 \
    --pipeline 32 --unique 64 --procs 2 --tasks 3 --json)
echo "$REPORT"
case "$REPORT" in
    *'"errors":0'*) ;;
    *) echo "FAIL: loadgen reported errors"; exit 1 ;;
esac

RPS=$(printf '%s' "$REPORT" | sed -n 's/.*"throughput_rps":\([0-9.]*\).*/\1/p')
[ -n "$RPS" ] || { echo "FAIL: no throughput_rps in report"; exit 1; }
if [ "$(printf '%.0f' "$RPS")" -lt "$FLOOR_RPS" ]; then
    echo "FAIL: throughput $RPS req/s below floor $FLOOR_RPS req/s"
    exit 1
fi
echo "throughput $RPS req/s >= floor $FLOOR_RPS req/s"

echo "--- shutdown"
HOST=${ADDR%:*}; PORT=${ADDR##*:}
exec 3<>"/dev/tcp/$HOST/$PORT"
printf '{"op":"shutdown"}\n' >&3
timeout 10 head -n1 <&3 >/dev/null || { echo "FAIL: shutdown hung"; exit 1; }
exec 3<&-
wait "$SERVER_PID" 2>/dev/null || true
echo "service perf smoke passed"
