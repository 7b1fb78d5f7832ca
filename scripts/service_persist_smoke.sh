#!/usr/bin/env bash
# Snapshot/replay smoke: sessions committed under --persist must
# survive a full server restart byte-identically.
#   1. start `mpcp serve --persist DIR`, submit a session, grow it,
#      then edit it three more times (add, add, remove): one-task edits
#      must reach the journal as one-task lines, < 2 KB for the three,
#   2. record the session's `query` payload, shut the server down,
#   3. restart on the same DIR, query again: the `"session":{...}`
#      tail (name, counts, verdict, full system spec) must match the
#      pre-restart bytes exactly, and the restored session must still
#      accept edits.
set -euo pipefail

MPCP_BIN=${MPCP_BIN:-target/release/mpcp}
OUT=$(mktemp)
DIR=$(mktemp -d)
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -f "$OUT"; rm -rf "$DIR"' EXIT

start_server() {
    : >"$OUT"
    "$MPCP_BIN" serve --port 0 --workers 2 --queue 32 --persist "$DIR" >"$OUT" 2>&1 &
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
}

ask() { # one request, one response line, on a fresh connection
    exec 3<>"/dev/tcp/$HOST/$PORT"
    printf '%s\n' "$1" >&3
    timeout 10 head -n1 <&3 || { echo "FAIL: no response to: $1" >&2; exit 1; }
    exec 3<&-
}

start_server
echo "serving on $HOST:$PORT (persist $DIR)"

SYS='{"processors":["P0","P1"],"resources":["SG"],"tasks":[{"name":"a","processor":0,"period":100,"body":[{"compute":10},{"critical":0,"body":[{"compute":2}]}]},{"name":"b","processor":1,"period":200,"body":[{"compute":20},{"critical":0,"body":[{"compute":5}]}]}]}'
R=$(ask "{\"op\":\"submit\",\"session\":\"durable\",\"system\":$SYS}")
case "$R" in *'"verdict":"admit"'*) ;; *) echo "FAIL: submit not admitted: $R"; exit 1 ;; esac
R=$(ask '{"op":"add-task","session":"durable","task":{"name":"c","processor":0,"period":400,"body":[{"compute":8}]}}')
case "$R" in *'"ok":true'*) ;; *) echo "FAIL: add-task errored: $R"; exit 1 ;; esac

# An edit costs what it touches: three one-task edits may not re-write
# the session three times.
JOURNAL_BEFORE=$(stat -c %s "$DIR/journal.ndjson")
for REQ in \
    '{"op":"add-task","session":"durable","task":{"name":"d","processor":1,"period":500,"body":[{"compute":6}]}}' \
    '{"op":"add-task","session":"durable","task":{"name":"e","processor":0,"period":800,"body":[{"compute":3},{"critical":0,"body":[{"compute":1}]}]}}' \
    '{"op":"remove-task","session":"durable","task":"d"}'; do
    R=$(ask "$REQ")
    case "$R" in *'"ok":true'*'"verdict":"admit"'*) ;; *) echo "FAIL: edit not admitted: $REQ -> $R"; exit 1 ;; esac
done
GREW=$(($(stat -c %s "$DIR/journal.ndjson") - JOURNAL_BEFORE))
[ "$GREW" -gt 0 ] && [ "$GREW" -lt 2048 ] || {
    echo "FAIL: three one-task edits grew the journal by $GREW bytes (want 1..2047)"; exit 1; }
echo "three edits journaled in $GREW bytes"

BEFORE=$(ask '{"op":"query","session":"durable"}')
BEFORE_SESSION=${BEFORE#*\"session\":}
[ "$BEFORE_SESSION" != "$BEFORE" ] || { echo "FAIL: query has no session payload: $BEFORE"; exit 1; }

ask '{"op":"shutdown"}' >/dev/null
wait "$SERVER_PID" 2>/dev/null || true
[ -s "$DIR/journal.ndjson" ] || [ -s "$DIR/snapshot.ndjson" ] || {
    echo "FAIL: nothing persisted in $DIR"; ls -la "$DIR"; exit 1; }

echo "--- restart"
start_server
AFTER=$(ask '{"op":"query","session":"durable"}')
AFTER_SESSION=${AFTER#*\"session\":}
if [ "$BEFORE_SESSION" != "$AFTER_SESSION" ]; then
    echo "FAIL: session payload changed across restart"
    echo "before: $BEFORE_SESSION"
    echo "after:  $AFTER_SESSION"
    exit 1
fi
echo "session payload byte-identical across restart"

# The replayed session must still be editable.
R=$(ask '{"op":"remove-task","session":"durable","task":"c"}')
case "$R" in *'"ok":true'*) ;; *) echo "FAIL: remove-task on replayed session: $R"; exit 1 ;; esac

ask '{"op":"shutdown"}' >/dev/null
wait "$SERVER_PID" 2>/dev/null || true
echo "service persist smoke passed"
