#!/usr/bin/env bash
# Non-test Rust lines per crate, so "net-negative" is a number.
#
# Counts every line of `src/**/*.rs` (code, comments and blanks alike)
# of the root package and of each crate under `crates/`, up to — not
# including — the file's trailing `#[cfg(test)] mod … {` block. `tests/`,
# `benches/` and `examples/` directories are not looked at. The frozen
# `benchmark/` harness is not part of the workspace and is not counted.
#
# The workspace total is a ratchet: `scripts/loc.max` (of the tree
# being counted) holds the ceiling, one number, and the script exits 1
# above it. A change that must grow the workspace raises the number in
# its own diff; one that shrinks it lowers the number to what it
# reached. A tree without the file is only counted.
#
# usage: scripts/loc.sh [REPO_ROOT]     (default: the checkout this
#                                        script lives in)
set -euo pipefail
root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root"

count() { # DIR -> non-test lines under DIR/src
    find "$1/src" -name '*.rs' -print0 2>/dev/null | sort -z | xargs -0 -r awk '
        FNR == 1 { total += kept(); n = 0; cut = 0 }
        { n = FNR }
        /^#\[cfg\(test\)\]$/ { pending = FNR; next }
        pending && FNR == pending + 1 && /^mod [a-z_]+ \{$/ { cut = pending }
        { pending = 0 }
        function kept() { return cut ? cut - 1 : n }
        END { print total + kept() }'
}

total=0
printf '%-16s %8s\n' crate lines
for dir in . crates/*/; do
    dir="${dir%/}"
    [ -d "$dir/src" ] || continue
    name=$(sed -n 's/^name = "\(.*\)"/\1/p' "$dir/Cargo.toml" | head -1)
    lines=$(count "$dir")
    lines=${lines:-0}
    total=$((total + lines))
    printf '%-16s %8d\n' "$name" "$lines"
done
printf '%-16s %8d\n' workspace "$total"
if [ -f scripts/loc.max ]; then
    max=$(tr -dc 0-9 < scripts/loc.max)
    if [ "$total" -gt "$max" ]; then
        echo "FAIL: workspace has $total non-test lines, ceiling is $max (scripts/loc.max)" >&2
        exit 1
    fi
fi
