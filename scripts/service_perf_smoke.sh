#!/usr/bin/env bash
# Perf smoke for the reactor service: 1024 distinct submissions,
# pipelined over 4 connections (each with a background reader), must
# all be answered "ok" and clear a deliberately conservative throughput
# floor. The floor (500 req/s) is an order-of-magnitude
# tripwire — release builds sustain thousands of req/s even on one
# shared vCPU — so it catches an accidental O(n) in the hot path or a
# reintroduced per-request allocation storm, not machine-to-machine
# noise. Real numbers come from the benchmark in benchmark/ (its
# serve-* workloads; see benchmark/README.md).
set -euo pipefail

MPCP_BIN=${MPCP_BIN:-target/release/mpcp}
FLOOR_RPS=${FLOOR_RPS:-500}
CONNS=4
PER_CONN=256
OUT=$(mktemp)
WORK=$(mktemp -d)
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -f "$OUT"; rm -rf "$WORK"' EXIT

"$MPCP_BIN" serve --port 0 --shards 2 --workers 4 --queue 64 >"$OUT" 2>&1 &
SERVER_PID=$!

for _ in $(seq 1 100); do
    grep -q "listening on" "$OUT" && break
    kill -0 "$SERVER_PID" 2>/dev/null || { echo "FAIL: server died at startup"; cat "$OUT"; exit 1; }
    sleep 0.1
done
ADDR=$(sed -n 's/^mpcp-service listening on //p' "$OUT")
[ -n "$ADDR" ] || { echo "FAIL: no listening banner"; cat "$OUT"; exit 1; }
echo "serving on $ADDR"

HOST=${ADDR%:*}; PORT=${ADDR##*:}

echo "--- pipelined uncached burst"
# Distinct systems (a period per request), so every request misses the
# cache and is analysed.
for C in $(seq 0 $((CONNS - 1))); do
    for I in $(seq 0 $((PER_CONN - 1))); do
        printf '{"op":"submit","session":"perf-%d","system":{"processors":["P0","P1"],"resources":["SG"],"tasks":[{"name":"a","processor":0,"period":%d,"body":[{"compute":10},{"critical":0,"body":[{"compute":2}]}]},{"name":"b","processor":1,"period":300,"body":[{"compute":20},{"critical":0,"body":[{"compute":5}]},{"compute":4}]},{"name":"c","processor":0,"period":500,"body":[{"compute":30},{"suspend":3}]}]}}\n' \
            "$C" $((100 + C * PER_CONN + I))
    done >"$WORK/req$C"
done
START=$(date +%s%N)
for C in $(seq 0 $((CONNS - 1))); do
    exec {FD}<>"/dev/tcp/$HOST/$PORT"
    timeout 60 head -n "$PER_CONN" <&"$FD" >"$WORK/rep$C" &
    READERS+=("$!")
    cat "$WORK/req$C" >&"$FD" &
    WRITERS+=("$!")
    FDS+=("$FD")
done
for R in "${READERS[@]}"; do
    wait "$R" || { echo "FAIL: a reader timed out"; exit 1; }
done
wait "${WRITERS[@]}"
ELAPSED_NS=$(($(date +%s%N) - START))
for FD in "${FDS[@]}"; do exec {FD}<&-; done

TOTAL=$((CONNS * PER_CONN))
OK=$(cat "$WORK"/rep* | grep -c '"ok":true' || true)
ERRORS=$((TOTAL - OK))
RPS=$((TOTAL * 1000000000 / ELAPSED_NS))
echo "requests $TOTAL ok $OK errors $ERRORS elapsed $((ELAPSED_NS / 1000000)) ms throughput $RPS req/s"
[ "$ERRORS" -eq 0 ] || { echo "FAIL: $ERRORS requests unanswered or not ok"; exit 1; }
if [ "$RPS" -lt "$FLOOR_RPS" ]; then
    echo "FAIL: throughput $RPS req/s below floor $FLOOR_RPS req/s"
    exit 1
fi
echo "throughput $RPS req/s >= floor $FLOOR_RPS req/s"

echo "--- shutdown"
exec 3<>"/dev/tcp/$HOST/$PORT"
printf '{"op":"shutdown"}\n' >&3
timeout 10 head -n1 <&3 >/dev/null || { echo "FAIL: shutdown hung"; exit 1; }
exec 3<&-
wait "$SERVER_PID" 2>/dev/null || true
echo "service perf smoke passed"
