#!/usr/bin/env bash
# Crate-graph edges that must stay absent, so a convenience import does
# not quietly put the admission server (reactor, epoll FFI, journal)
# back under the sweep, the experiment harness back under a leaf, or
# the simulator or the task-set generator back under the admission
# server. The protocol policies and DGA link the simulator, so
# forbidding it forbids them too.
#
# usage: scripts/deps.sh        (from any directory; offline)
set -euo pipefail
cd "$(dirname "$0")/.."

# Every crate PACKAGE reaches through the given edge kinds, itself
# excluded, one name per line.
reach() { # PACKAGE EDGE_KINDS
    cargo tree --offline -p "$1" -e "$2" --prefix none | tail -n +2 | cut -d' ' -f1 | sort -u
}

fail=0
forbid() { # PACKAGE EDGE_KINDS CRATE WHY
    if reach "$1" "$2" | grep -qx "$3"; then
        echo "deps: $1 reaches $3 ($4)" >&2
        fail=1
    fi
}

if [ -n "$(reach mpcp-json normal,build,dev)" ]; then
    echo "deps: mpcp-json must have no dependency, found:" >&2
    reach mpcp-json normal,build,dev >&2
    fail=1
fi
forbid mpcp-sweep normal mpcp-service "the sweep needs mpcp-json, not the server"
forbid mpcp-verify normal,dev mpcp-bench "the paper examples live in mpcp-taskgen"
forbid mpcp-verify normal mpcp-sim "the model checker lives in mpcp-sweep"
forbid mpcp-verify normal mpcp-protocols "the model checker lives in mpcp-sweep"
forbid mpcp-service normal mpcp-sim "the admission server analyses, it never simulates"
forbid mpcp-service normal mpcp-taskgen "the server admits submissions; it never generates them"

[ "$fail" -eq 0 ] && echo "deps: ok"
exit "$fail"
