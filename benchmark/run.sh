#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it with the arguments given:
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# The checkout need not be a git repository. Everything the build and the run
# write (Go build cache, binary, scratch stores) stays under .bench_build/ in
# the checkout; nothing is fetched from the network.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/gotmp" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOPROXY=off GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
TMPDIR="$build/tmp" exec "$build/benchmark" "$@"
