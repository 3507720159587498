#!/usr/bin/env bash
# Paired benchmark runs of a parent commit against this working tree (run via
# `make bench-pairs WORKLOAD=… SEED=… PAIRS=10`), the way the
# choosing-metrics guide, section 8, asks a gain to be shown:
#
#   - the parent is extracted into .bench_build/pairs/parent and each side
#     runs through its OWN benchmark/run.sh, so each is measured by the
#     benchmark code and settings of its own tree;
#   - PAIRS pairs run untraced, alternating which side goes first;
#   - per end-to-end metric: each side's median and quartiles, how many
#     pairs the change won (ties count for neither), and whether that is a
#     gain — at least nine tenths of the pairs won and medians further apart
#     than the parent's own quartiles — or, by the same rule mirrored, a loss.
#
# Exits 1 when any metric's verdict is a loss or when a larger share of the
# change's operations failed than of the parent's, which is what makes it the
# CI gate (.github/workflows/ci.yml, job bench-gate); "gain" and "no gain
# shown" exit 0.
#
# PARENT defaults to HEAD when the tree has uncommitted changes (the work in
# progress against its base) and to HEAD~1 when it is clean. Everything is
# written under the git-ignored .bench_build/; the parent is extracted with
# `git archive`, so nothing under .git changes.
set -euo pipefail

cd "$(dirname "$0")/.."
root=$PWD
WORKLOAD=${WORKLOAD:-itemset-kvfile}
SEED=${SEED:-3}
PAIRS=${PAIRS:-10}
SECONDS_PER_RUN=${SECONDS_PER_RUN:-10}
if [ -z "${PARENT:-}" ]; then
    if git diff --quiet HEAD -- 2>/dev/null; then PARENT=HEAD~1; else PARENT=HEAD; fi
fi

work=$root/.bench_build/pairs
rm -rf "$work"
mkdir -p "$work/parent"
git archive "$PARENT" | tar -x -C "$work/parent"
echo "bench-pairs: $WORKLOAD seed $SEED, $PAIRS pairs of ${SECONDS_PER_RUN}s, parent $(git rev-parse --short "$PARENT") against the working tree"

# run SIDE TREE PAIR appends "SIDE PAIR METRIC VALUE" lines to $work/values.
run() {
    local side=$1 tree=$2 pair=$3 log=$work/$1.$3.log
    bash "$tree/benchmark/run.sh" --workload "$WORKLOAD" --seed "$SEED" \
        --seconds "$SECONDS_PER_RUN" --trace 0 >"$log" 2>&1 ||
        { echo "bench-pairs: $side run $pair failed, see $log" >&2; exit 1; }
    local json
    json=$(grep '^{"correct"' "$log" | tail -1)
    case $json in
    '{"correct":true,'*) ;;
    *) echo "bench-pairs: $side run $pair is not correct, see $log" >&2; exit 1 ;;
    esac
    printf '%s\n' "$json" | grep -oE '"(attempted|failed)":[0-9]+' |
        sed -E "s/\"([a-z]+)\":([0-9]+)/$side $pair \1 \2/" >>"$work/values"
    printf '%s\n' "$json" | grep -oE '"[a-z0-9_]+":\{"value":[-+0-9.eE]+' |
        sed -E "s/\"([a-z0-9_]+)\":\{\"value\":(.*)/$side $pair \1 \2/" >>"$work/values"
}

for pair in $(seq 1 "$PAIRS"); do
    if [ $((pair % 2)) -eq 1 ]; then
        run parent "$work/parent" "$pair"
        run change "$root" "$pair"
    else
        run change "$root" "$pair"
        run parent "$work/parent" "$pair"
    fi
    echo "bench-pairs: pair $pair of $PAIRS done"
done

# The direction of every metric, from the benchmark's own declaration.
awk -F'"' '/"name":/ { name = $4 } /"better":/ { print name, $4 }' BENCHMARK.json >"$work/better"

status=0
sort -k3,3 -k1,1 -k4,4g "$work/values" | awk -v pairs="$PAIRS" -v betterfile="$work/better" '
function quantile(v, n, k,    pos, j) { # the exclusive method, as benchmark/compare.go
    if (n < 2) return v[1]
    pos = k * (n + 1) / 4
    j = int(pos); if (j < 1) j = 1; if (j > n - 1) j = n - 1
    return v[j] + (pos - j) * (v[j + 1] - v[j])
}
function summarize(side, m,    n, i, v) {
    n = cnt[side, m]
    for (i = 1; i <= n; i++) v[i] = sorted[side, m, i]
    med[side] = (n % 2) ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2
    q1[side] = quantile(v, n, 1); q3[side] = quantile(v, n, 3)
}
BEGIN { while ((getline line < betterfile) > 0) { split(line, f, " "); better[f[1]] = f[2] } }
{
    side = $1; m = $3
    sorted[side, m, ++cnt[side, m]] = $4 # values arrive sorted per metric and side
    bypair[side, m, $2] = $4
    if (!(m in seen)) { seen[m] = 1; order[++nm] = m }
}
END {
    printf "\n%-24s %-6s %12s %25s %12s %25s %8s %6s  %s\n", "metric", "better", "parent med", "[q1, q3]", "change med", "[q1, q3]", "change", "won", "verdict"
    for (k = 1; k <= nm; k++) {
        m = order[k]
        if (m == "attempted" || m == "failed") { total["parent", m] = 0; total["change", m] = 0
            for (i = 1; i <= pairs; i++) { total["parent", m] += bypair["parent", m, i]; total["change", m] += bypair["change", m, i] }
            continue }
        summarize("parent", m); summarize("change", m)
        hi = (better[m] == "higher")
        won = 0; lost = 0
        for (i = 1; i <= pairs; i++) {
            p = bypair["parent", m, i]; c = bypair["change", m, i]
            if (c == p) continue
            if ((c > p) == hi) won++; else lost++
        }
        delta = med["change"] - med["parent"]
        ratio = med["parent"] ? med["change"] / med["parent"] : 0
        gap = delta < 0 ? -delta : delta
        verdict = "no gain shown"
        if ((delta > 0) == hi && delta != 0 && won >= 0.9 * pairs && gap > q3["parent"] - q1["parent"]) verdict = "gain"
        if ((delta > 0) != hi && delta != 0 && lost >= 0.9 * pairs && gap > q3["parent"] - q1["parent"]) verdict = "loss"
        if (verdict == "loss") bad = 1
        printf "%-24s %-6s %12.4f %25s %12.4f %25s %7.2fx %3d/%-2d  %s\n", m, better[m], med["parent"], sprintf("[%.4f, %.4f]", q1["parent"], q3["parent"]), med["change"], sprintf("[%.4f, %.4f]", q1["change"], q3["change"]), ratio, won, pairs, verdict
    }
    printf "failed operations: parent %d of %d, change %d of %d\n", total["parent", "failed"], total["parent", "attempted"], total["change", "failed"], total["change", "attempted"]
    # shares compared cross-multiplied, so a side that attempted nothing divides nothing
    if (total["change", "failed"] * total["parent", "attempted"] > total["parent", "failed"] * total["change", "attempted"]) bad = 1
    exit bad
}' || status=$?
echo "bench-pairs: every run's output is in $work/"
if [ "$status" -ne 0 ]; then
    echo "bench-pairs: FAIL — a metric is a loss, or more of the change's operations failed than of the parent's" >&2
fi
exit "$status"
