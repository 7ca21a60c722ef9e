#!/usr/bin/env bash
# Non-test Rust lines per crate and in total.
#
#   scripts/loc.sh [REV]
#
# Counts every tracked `.rs` file up to its first `#[cfg(test)]` line.
# Files under a `tests/` directory and everything in `perfbench/` are
# left out. A crate is `crates/NAME` or `compat/NAME`; other files group
# by their top directory (`src`, `examples`). Given a revision, also
# prints each crate's count there and the change since. Informational
# only: nothing gates on it.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

# Reads NUL-separated `.rs` paths relative to directory $1 on stdin and
# prints "crate lines" per crate.
count() {
    (cd "$1" && grep -zEv '^perfbench/|(^|/)tests/' |
        xargs -0 -r awk '
            FNR == 1 {
                skip = 0
                n = split(FILENAME, p, "/")
                c = n == 1 ? "." : (p[1] == "crates" || p[1] == "compat") ? p[1] "/" p[2] : p[1]
            }
            /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1 }
            !skip { lines[c]++ }
            END { for (c in lines) print c, lines[c] }') |
        awk '{ s[$1] += $2 } END { for (c in s) print c, s[c] }' | sort
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

git ls-files -z -- '*.rs' | count . >"$tmp/now"

if [ $# -eq 0 ]; then
    awk '{ printf "%-28s %7d\n", $1, $2; t += $2 } END { printf "%-28s %7d\n", "total", t }' "$tmp/now"
    exit 0
fi

rev=$(git rev-parse --verify "$1^{commit}")
mkdir "$tmp/tree"
git archive "$rev" | tar -x -C "$tmp/tree"
(cd "$tmp/tree" && find . -name '*.rs' -print0 | sed -z 's|^\./||') | count "$tmp/tree" >"$tmp/then"

printf "%-28s %7s %7s %7s\n" crate now "${1:0:7}" delta
awk 'NR == FNR { then[$1] = $2; seen[$1] = 1; next }
     { now[$1] = $2; seen[$1] = 1 }
     END {
         for (c in seen) printf "%-28s %7d %7d %+7d\n", c, now[c], then[c], now[c] - then[c]
     }' "$tmp/then" "$tmp/now" | sort >"$tmp/rows"
cat "$tmp/rows"
awk '{ n += $2; t += $3 } END { printf "%-28s %7d %7d %+7d\n", "total", n, t, n - t }' "$tmp/rows"
