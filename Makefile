# Development targets for the DEMON reproduction.

GO ?= go

.PHONY: all build bin test race race-differential cover bench bench-pairs profile check fmt-check backends faultsweep chaos serve-smoke lint-metrics loc experiments examples fmt vet clean

all: build test

build:
	$(GO) build ./...

# Every CLI binary — the miners and generators, demon-bench,
# the chaos proxy and feeder, and the resident server demon-serve — into bin/.
bin:
	$(GO) build -o bin/ ./cmd/...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The cross-strategy differential harness and the concurrent-reader hammers
# under the race detector (see differential_test.go, concurrency_test.go),
# plus fuzz smokes of PrefixCount against the prefix tree's keyed counts, of
# the flat prefix tree against naive counting (see
# internal/itemset/prefixtree_test.go), of the transaction block codec on
# hostile bytes (see internal/itemset/transaction_test.go), of the model
# codec on hostile bytes (see internal/borders/golden_test.go), of BIRCH
# phase 2 against its all-pairs reference (see internal/birch/birch_test.go),
# of the NDJSON line decoder on hostile bytes and caps and of the hand-written
# block codec against encoding/json in both directions (see
# internal/blockio/blockio_test.go), of the transaction journal codec on
# hostile bytes (see internal/diskio/txn_test.go), of the appending TID-list
# decoder on hostile bytes and against the plain one (see
# internal/diskio/codec_test.go), of a block's TID-list segment on hostile
# bytes (see internal/tidlist/segment_test.go), of the record frame every checksummed Get
# strips (see internal/diskio/frame_test.go), of the CF-tree codec and the
# stored point block on hostile bytes (see internal/cf/codec_test.go and
# internal/birch/birch_test.go), of the CF-tree descent's pick against its
# root-based reference (see internal/cf/tree_test.go), of serve's
# namespace.json reader on hostile bytes (see internal/serve/serve_test.go),
# and of the miners' and the monitor's position records on hostile bytes (see
# checkpoint_test.go). The decoder fuzzers bound each input's allocation with
# internal/allocbound. Each smoke spends at most 1 s minimizing a new input
# (-fuzzminimizetime; the engine's default is 60 s), so its 30 s go to
# fuzzing.
race-differential:
	$(GO) test -race -run 'TestDifferential|TestConcurrentReaders' -count=1 .
	$(GO) test -run '^$$' -fuzz FuzzDifferentialCount -fuzztime 30s -fuzzminimizetime 1s .
	$(GO) test -run '^$$' -fuzz FuzzPrefixTreeCount -fuzztime 30s -fuzzminimizetime 1s ./internal/itemset/
	$(GO) test -run '^$$' -fuzz FuzzDecodeTxBlock -fuzztime 30s -fuzzminimizetime 1s ./internal/itemset/
	$(GO) test -run '^$$' -fuzz FuzzDecodeModel -fuzztime 30s -fuzzminimizetime 1s ./internal/borders/
	$(GO) test -run '^$$' -fuzz FuzzPhase2MatchesReference -fuzztime 30s -fuzzminimizetime 1s ./internal/birch/
	$(GO) test -run '^$$' -fuzz FuzzLineDecoder -fuzztime 30s -fuzzminimizetime 1s ./internal/blockio/
	$(GO) test -run '^$$' -fuzz FuzzBlockCodecAgainstJSON -fuzztime 30s -fuzzminimizetime 1s ./internal/blockio/
	$(GO) test -run '^$$' -fuzz FuzzDecodeJournal -fuzztime 30s -fuzzminimizetime 1s ./internal/diskio/
	$(GO) test -run '^$$' -fuzz FuzzSortedIntsCodec -fuzztime 30s -fuzzminimizetime 1s ./internal/diskio/
	$(GO) test -run '^$$' -fuzz FuzzDecodeSegment -fuzztime 30s -fuzzminimizetime 1s ./internal/tidlist/
	$(GO) test -run '^$$' -fuzz FuzzUnframe -fuzztime 30s -fuzzminimizetime 1s ./internal/diskio/
	$(GO) test -run '^$$' -fuzz FuzzDecodeTree -fuzztime 30s -fuzzminimizetime 1s ./internal/cf/
	$(GO) test -run '^$$' -fuzz FuzzDecodePointBlock -fuzztime 30s -fuzzminimizetime 1s ./internal/birch/
	$(GO) test -run '^$$' -fuzz FuzzClosestMatchesReference -fuzztime 30s -fuzzminimizetime 1s ./internal/cf/
	$(GO) test -run '^$$' -fuzz FuzzReadSpec -fuzztime 30s -fuzzminimizetime 1s ./internal/serve/
	$(GO) test -run '^$$' -fuzz FuzzDecodeCheckpointMeta -fuzztime 30s -fuzzminimizetime 1s .
	$(GO) test -run '^$$' -fuzz FuzzDecodeMonitorMeta -fuzztime 30s -fuzzminimizetime 1s .

cover:
	$(GO) test -cover ./...

# The CI gate: gofmt, static analysis, every -run pattern below selecting a
# test (scripts/check-run-patterns.sh), and the full suite under the race
# detector.
check: lint-metrics fmt-check
	$(GO) vet ./...
	./scripts/check-run-patterns.sh
	$(GO) test -race ./...

# Validate every registry instrument name against the naming conventions the
# Prometheus exposition relies on (see scripts/lint-metrics.sh).
lint-metrics:
	./scripts/lint-metrics.sh

# Non-test Go lines per package, benchmark/ and .bench_build/ excluded — the
# measure of ROADMAP's *Alongside* "-20 % non-test LOC" target (see
# scripts/loc.sh; `scripts/loc.sh DIR` counts another checkout). With
# PARENT=<rev> it prints before / after / delta per package against a
# `git archive` of that revision — the lines-moved table of a PR.
loc:
	PARENT=$(PARENT) ./scripts/loc.sh

# The storage-backend gate: the Store conformance suite against every
# backend and decorator stack (see internal/diskio/conformance), the kvfile
# engine's own tests plus a fuzz smoke of its crash-recovery oracle, the
# cache differential/coherence suite and the durability simulation's
# schedules on the disk rows (every kind on file, kvfile and kvfile+cache;
# see simulate_test.go) — all under the race detector.
backends:
	$(GO) test -race -count=1 ./internal/diskio/...
	$(GO) test -run '^$$' -fuzz FuzzKVFileReopen -fuzztime 30s ./internal/diskio/kvfile/
	$(GO) test -race -short -count=1 -run '^TestSimulate$$/.*/^(file|kvfile|kvfile\+cache)$$' .

# The durability simulations (simulate_test.go in the root package and in
# internal/serve, whose crash family sweeps the sequenced ingest path) and
# the transaction journal's crash sweep, under the race detector. Each root
# schedule is a subtest <kind>/<backend>/seed=<n>: a history of blocks,
# checkpoints, deletions and threshold changes, crashed at one store
# operation with a torn write (or failed once), restarted over the surviving
# bytes and resumed, with the invariants checked after every event and the
# store ending byte-identical to the fault-free run. A failing schedule
# prints the command that replays it alone, e.g.
# go test -run '^TestSimulate$/^window-ecut$/^mem$/^seed=57$' .
# FAULTSWEEP_FLAGS=-short crashes at ~40 operation indices per kind on the
# mem rows, 8 on the disk rows, instead of every one.
FAULTSWEEP_FLAGS ?=
faultsweep:
	$(GO) test -race $(FAULTSWEEP_FLAGS) -run '^TestSimulate(ReplaysItsLog)?$$|FaultSweep|CrashSweep' ./...

# The exactly-once resilience gate: the fault injection proxy's own suite,
# the resilient client against scripted fault servers, demon-feed through
# an outage and re-run after giving up, the server's ingest and sequencing
# contract, and the served simulation's families
# (internal/serve/simulate_test.go) — demon-feed's client driven through the
# proxy's resets, torn writes, stalls and latency, re-run from the input's
# first block by a fresh client, store crashes with torn writes, failed
# operations and a dead handle, drains and restarts (one inside the
# client's backoff), every store ending byte-identical to its fault-free
# twin — all under the race detector. Short mode keeps the crash family
# sampled.
chaos:
	$(GO) test -race -short -count=1 ./internal/chaos/ ./internal/client/ ./cmd/demon-feed/
	$(GO) test -race -short -count=1 -run 'TestIngest|TestHTTP|TestSeq|TestRecoverSeq' ./internal/serve/
	$(GO) test -race -short -count=1 -run '^TestSimulate$$/^(crash|itemset|window|cluster|monitor|reopen)$$' ./internal/serve/

# Smoke-test the resident server: first the served simulation's unsequenced
# family — two namespaces fed concurrently and queried, drained and
# restarted mid-stream, each store compared with a plain miner's — under the
# race detector, then the real binary answering /healthz, /readyz, /tracez
# (an end-to-end traced ingest) and /metricsz in both JSON and Prometheus
# exposition, drain-exiting on SIGTERM, and logging nothing but JSON records
# that carry the trace ID (see scripts/serve-smoke.sh).
serve-smoke: bin
	$(GO) test -race -count=1 -run '^TestSimulate$$/^unsequenced$$' ./internal/serve/
	./scripts/serve-smoke.sh

# Every testing.B benchmark: the lab's registry, one sub-benchmark per paper
# table/figure and ablation (BenchmarkLab/<name> in internal/bench, the same
# entries demon-bench runs), the window miner's step at the window-mem
# shape (BenchmarkWindowStep in the root package: ingest plus the GEMM step
# over w = 4 slots), the monitor's step at t = 16 and its resume over 16
# blocks (BenchmarkMonitorStep and BenchmarkResumeMonitor, same package),
# and the kernels beside the code they measure (BenchmarkCount in
# internal/borders, BenchmarkCountECUT and BenchmarkMaterialize in
# internal/tidlist, the two BIRCH+ phases over the cluster-mem stream
# (BenchmarkInsertPinnedStream in internal/cf: phase 1, its 45 blocks of
# 5,000 points into a fresh tree; BenchmarkPhase2PinnedStream in
# internal/birch: phase 2 over that tree's sub-clusters), BenchmarkOpen and
# BenchmarkKeysPrefix in internal/diskio/kvfile, a reopen and a listing of a
# log at the itemset-kvfile shape of 65 k keys in 3.5 MB, and
# BenchmarkRecover in internal/diskio, the recovery every open runs over a
# clean MemStore at the itemset-mem shape of 65 k keys). Filterable: `make bench
# PKG=./internal/bench BENCH=BenchmarkLab/fig4` runs one entry.
PKG ?= ./...
BENCH ?= .
bench:
	$(GO) test -bench='$(BENCH)' -benchmem -run '^$$' $(PKG)

# Paired runs of the repository benchmark (BENCHMARK.json, benchmark/): the
# parent commit against this working tree, alternating which goes first, with
# per-metric medians, quartiles and pairs won (see scripts/bench-pairs.sh).
# Fails when a metric is a loss by the paired rule or more operations fail
# than at the parent: CI runs it per gated workload against the merge base.
# PARENT= names another base; SECONDS_PER_RUN= another run length.
WORKLOAD ?= itemset-kvfile
SEED ?= 3
PAIRS ?= 10
bench-pairs:
	WORKLOAD=$(WORKLOAD) SEED=$(SEED) PAIRS=$(PAIRS) ./scripts/bench-pairs.sh

# CPU and heap hotspots of one testing.B benchmark with the stock toolchain:
# `make profile BENCH=BenchmarkCount PKG=./internal/borders` (the counting
# kernels; BENCH=BenchmarkLab/fig4 PKG=./internal/bench for a whole
# experiment; BENCH=BenchmarkWindowStep PKG=. for the GEMM step of the
# window-mem workload) leaves cpu.out and mem.out (git-ignored) and prints
# the top of each. PKG must name one package. The block codecs have theirs beside them:
# BENCH='BenchmarkLineDecoder|BenchmarkEncoder' PKG=./internal/blockio (the
# NDJSON line of a 4,000-transaction block) and
# BENCH='BenchmarkNewTxBlock|BenchmarkDecodeTxBlock|BenchmarkTxBlockEncode'
# PKG=./internal/itemset (its stored form); add -benchmem through `make bench`.
# The kvfile reopen: BENCH=BenchmarkOpen PKG=./internal/diskio/kvfile. The
# other two routes, also stock: -pprof-addr on the CLIs for a live process,
# and `go test ./benchmark -run TestSmoke -cpuprofile cpu.out` for a yardstick
# workload at smoke size.
profile:
	$(GO) test -run '^$$' -bench '$(BENCH)' -cpuprofile cpu.out -memprofile mem.out $(PKG)
	$(GO) tool pprof -top -nodecount 15 cpu.out
	$(GO) tool pprof -top -nodecount 15 -sample_index alloc_space mem.out

# Regenerate every table and figure of the paper's evaluation at laptop
# scale; use SCALE=1.0 for paper-sized runs.
SCALE ?= 0.1
experiments:
	$(GO) run ./cmd/demon-bench -exp all -scale $(SCALE)

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/retail
	$(GO) run ./examples/docclusters
	$(GO) run ./examples/webproxy

fmt:
	gofmt -w .

# Fail on any tracked Go file that gofmt would change; `make fmt` rewrites
# them. .bench_build/ (git-ignored extracted trees) is never checked.
fmt-check:
	@out=$$(git ls-files -z '*.go' ':!:.bench_build/**' | xargs -0 gofmt -l) && \
	if [ -n "$$out" ]; then echo "gofmt -l: not formatted:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

clean:
	$(GO) clean ./...
	rm -rf bin
