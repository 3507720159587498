#!/usr/bin/env bash
# Lint the registry instrument names used across the repo (run via `make
# lint-metrics`). The conventions the Prometheus writer and dashboards rely
# on:
#
#   - names are lowercase dotted paths: subsystem.operation[.unit]
#     ([a-z0-9_] segments joined by '.');
#   - names are rooted in a known subsystem (see KNOWN_SUBSYSTEMS below) so
#     a typo'd prefix cannot silently fork a metric family;
#   - Timer names end in ".ns" (the writer maps them to *_seconds);
#   - an optional label suffix "|k=v[,k2=v2]" with the same alphabet in
#     keys and values.
#
# Test files may mint throwaway names; only non-test sources are linted.
# Literals ending in '.' are prefixes completed at runtime and are checked
# against the prefix rules only.
set -euo pipefail

cd "$(dirname "$0")/.."

# The subsystems with a registered owner. Adding a metric under a new
# subsystem means adding it here (and to the dashboards that consume it).
KNOWN_SUBSYSTEMS="birch borders diskio focus gemm miner monitor pattern runtime serve"

fail=0

# instrument<TAB>name<TAB>file:line for every non-test instrument literal.
extract() {
    grep -rnoE '\.(Timer|Counter|Gauge)\("[^"]*"' . \
        --include='*.go' --exclude='*_test.go' --exclude-dir=bin |
    sed -E 's/^(.*):\.(Timer|Counter|Gauge)\("([^"]*)"/\2\t\3\t\1/'
}

while IFS=$'\t' read -r kind name loc; do
    base=${name%%|*}
    labels=""
    [ "$base" != "$name" ] && labels=${name#*|}

    if ! printf '%s' "$base" | grep -qE '^[a-z0-9_]+(\.[a-z0-9_]+)*\.?$'; then
        echo "lint-metrics: $loc: $kind name \"$name\" is not a lowercase dotted path"
        fail=1
        continue
    fi
    case $base in
    *.) continue ;; # runtime-completed prefix: no suffix/segment checks
    esac
    if ! printf '%s' "$base" | grep -q '\.'; then
        echo "lint-metrics: $loc: $kind name \"$name\" lacks a subsystem prefix (want subsystem.operation)"
        fail=1
    else
        subsystem=${base%%.*}
        case " $KNOWN_SUBSYSTEMS " in
        *" $subsystem "*) ;;
        *)
            echo "lint-metrics: $loc: $kind name \"$name\" uses unknown subsystem \"$subsystem\" (add it to KNOWN_SUBSYSTEMS if intended)"
            fail=1
            ;;
        esac
    fi
    if [ "$kind" = Timer ] && [ "${base%.ns}" = "$base" ]; then
        echo "lint-metrics: $loc: Timer name \"$name\" must end in .ns"
        fail=1
    fi
    if [ "$kind" != Timer ] && [ "${base%.ns}" != "$base" ] && [ "$kind" != Gauge ]; then
        echo "lint-metrics: $loc: $kind name \"$name\" ends in .ns but is not a Timer"
        fail=1
    fi
    if [ -n "$labels" ] &&
        ! printf '%s' "$labels" | grep -qE '^[a-z0-9_]+=[a-z0-9_.-]+(,[a-z0-9_]+=[a-z0-9_.-]+)*$'; then
        echo "lint-metrics: $loc: $kind label suffix \"|$labels\" is malformed (want |k=v[,k2=v2])"
        fail=1
    fi
done < <(extract)

if [ "$fail" -ne 0 ]; then
    echo "lint-metrics: FAILED" >&2
    exit 1
fi
echo "lint-metrics: OK"
