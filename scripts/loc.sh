#!/usr/bin/env bash
# Non-test Go lines per package (run via `make loc`): the number ROADMAP's
# *Alongside* "-20 % non-test LOC" target and the simplicity PRs are judged on.
# Counts every line of every *.go file that is not a *_test.go, skipping
# benchmark/ (the yardstick, not the program) and the git-ignored
# .bench_build/ trees. `loc.sh DIR` counts another checkout, e.g. a
# `git archive` of the parent commit.
set -euo pipefail

cd "${1:-$(dirname "$0")/..}"
find . -name '*.go' ! -name '*_test.go' \
    ! -path './benchmark/*' ! -path './.bench_build/*' -print0 |
    xargs -0 wc -l | awk '
        $2 == "total" { next }
        { pkg = $2; sub(/\/[^\/]*$/, "", pkg); n[pkg] += $1; all += $1 }
        END {
            for (p in n) printf "%7d %s\n", n[p], p | "sort -k2"
            close("sort -k2")
            printf "%7d total\n", all
        }'
