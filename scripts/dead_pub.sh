#!/usr/bin/env bash
# Every public item has a reader.
#
# For each `pub fn|struct|enum|const|type|trait|static` under
# `crates/*/src` (up to, not including, a file's trailing
# `#[cfg(test)] mod … {` block, as `scripts/loc.sh` cuts it), counts the
# `.rs` files *other than the item's own* that name it as a whole word,
# searching `crates`, `src`, `tests`, `examples` and `benchmark/src`. An
# item no other file names is either dead, or `pub` only to be read
# inside its own file; both fail the script unless
# `scripts/dead_pub.allow` has a line for the item and a reason:
#
#     crates/<crate>/src/<file>.rs:<name>   <one-phrase reason>
#
# A line for an item that now has a reader, or no longer exists, fails
# too, so the list cannot rot. When the script fails: give the item a
# real reader, delete it (with the unit tests that were its only
# callers), drop its `pub`, or allowlist it with a reason that says how
# it is reached.
#
# Text after `//` is dropped, so a comment or an intra-doc link is not a
# reader, and a `pub use` re-export is not the reader of a `pub fn`: a
# function only re-exported is as dead as one never named (a type stays
# read by its re-export, which is how a signature names it). Otherwise
# the match is by name, not by path: an item counts every file that
# names anything of the same name as a reader, so an unread item with a
# common name (`new`, `find`), or one a string literal spells, goes
# unnoticed.
#
# usage: scripts/dead_pub.sh [REPO_ROOT]   (default: the checkout this
#                                           script lives in)
set -euo pipefail
export LC_ALL=C
root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root"
allow=scripts/dead_pub.allow

# FILE NAME KIND per public item, KIND `fn` or `item`.
items() {
    find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { cut = 0 }
        cut { next }
        /^#\[cfg\(test\)\]$/ { pending = FNR; next }
        pending && FNR == pending + 1 && /^mod [a-z_]+ \{$/ { cut = 1; next }
        { pending = 0 }
        match($0, /^[ \t]*pub[ \t]+((const|unsafe|async)[ \t]+)*fn[ \t]+[A-Za-z_][A-Za-z0-9_]*/) ||
        match($0, /^[ \t]*pub[ \t]+(struct|enum|const|type|trait|static)[ \t]+(mut[ \t]+)?[A-Za-z_][A-Za-z0-9_]*/) {
            n = split(substr($0, RSTART, RLENGTH), w, /[ \t]+/)
            print FILENAME, w[n], (w[n - 1] == "fn" ? "fn" : "item")
        }'
}

# WORD FILE [use], once per word a searched file contains; `use` marks
# a word of a `pub use` statement.
words() {
    local dirs=() d
    for d in crates src tests examples benchmark/src; do
        [ -d "$d" ] && dirs+=("$d")
    done
    find "${dirs[@]}" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { export = 0 }
        /^[ \t]*pub(\([a-z]+\))?[ \t]+use[ \t]/ { export = 1 }
        {
            sub(/\/\/.*/, "")
            tag = export ? " use" : ""
            if (export && index($0, ";")) export = 0
            n = split($0, w, /[^A-Za-z0-9_]+/)
            for (i = 1; i <= n; i++)
                if (w[i] ~ /^[A-Za-z_]/ && !((FILENAME, w[i], tag) in seen)) {
                    seen[FILENAME, w[i], tag]
                    print w[i], FILENAME tag
                }
        }'
}

# FILE:NAME of every item no other file names.
unread() {
    awk '
        FNR == NR { wanted[$2]; items[$1 ":" $2] = $3; next }
        ($1 in wanted) && $3 == "use" { exports[$1] = exports[$1] " " $2; next }
        ($1 in wanted) { readers[$1] = readers[$1] " " $2 }
        END {
            for (key in items) {
                i = index(key, ":"); file = substr(key, 1, i - 1); name = substr(key, i + 1)
                named = readers[name] (items[key] == "fn" ? "" : exports[name])
                n = split(named, r, " "); outside = 0
                for (j = 1; j <= n; j++) if (r[j] != file) outside++
                if (!outside) print key
            }
        }' <(items) <(words) | sort
}

found=$(unread)
listed=$( [ -f "$allow" ] && sed -e 's/#.*//' -e '/^[[:space:]]*$/d' "$allow" | awk '{ print $1 }' | sort || true)
bad=0
while IFS= read -r key; do
    [ -n "$key" ] || continue
    echo "unread public item: $key (add a reader, delete it, drop its pub, or allowlist it in $allow)" >&2
    bad=1
done < <(comm -23 <(echo "$found") <(echo "$listed"))
while IFS= read -r key; do
    [ -n "$key" ] || continue
    echo "stale allowlist line: $key has a reader or no longer exists (remove it from $allow)" >&2
    bad=1
done < <(comm -13 <(echo "$found") <(echo "$listed"))
echo "$(echo "$found" | grep -c . || true) public items without an outside reader, $(echo "$listed" | grep -c . || true) allowlisted"
exit "$bad"
