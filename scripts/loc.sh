#!/usr/bin/env bash
# Non-test Go lines per package (run via `make loc`): the number ROADMAP's
# *Alongside* "-20 % non-test LOC" target and the simplicity PRs are judged on.
# Counts every line of every *.go file that is not a *_test.go, skipping
# benchmark/ (the yardstick, not the program) and the git-ignored
# .bench_build/ trees. `loc.sh DIR` counts another checkout. With PARENT=<rev>
# (`make loc PARENT=HEAD~1`) it extracts that revision with `git archive`
# under .bench_build/loc/ and prints before / after / delta per package — the
# lines-moved table a PR's CHANGES.md entry quotes.
set -euo pipefail

count() {
    (cd "$1" && find . -name '*.go' ! -name '*_test.go' \
        ! -path './benchmark/*' ! -path './.bench_build/*' -print0 |
        xargs -0 wc -l | awk '
            $2 == "total" { next }
            { pkg = $2; sub(/\/[^\/]*$/, "", pkg); n[pkg] += $1; all += $1 }
            END {
                for (p in n) printf "%7d %s\n", n[p], p | "sort -k2"
                close("sort -k2")
                printf "%7d total\n", all
            }')
}

root=$(cd "$(dirname "$0")/.." && pwd)
if [ -z "${PARENT:-}" ]; then
    count "${1:-$root}"
    exit
fi

rev=$(git -C "$root" rev-parse --verify "$PARENT^{commit}")
parent=$root/.bench_build/loc/$rev
rm -rf "$parent"
mkdir -p "$parent"
git -C "$root" archive "$rev" | tar -x -C "$parent"

printf '%7s %7s %7s  %s\n' before after delta "package (before = $PARENT)"
awk '
    NR == FNR { before[$2] = $1; seen[$2]; next }
    { after[$2] = $1; seen[$2] }
    END {
        for (p in seen) if (p != "total")
            printf "%7d %7d %+7d  %s\n", before[p], after[p], after[p] - before[p], p | "sort -k4"
        close("sort -k4")
        printf "%7d %7d %+7d  total\n", before["total"], after["total"], after["total"] - before["total"]
    }' <(count "$parent") <(count "$root")
