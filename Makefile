# Development targets for the DEMON reproduction.

GO ?= go

.PHONY: all build bin test race race-differential cover bench bench-pairs profile check backends faultsweep chaos serve-smoke lint-metrics loc experiments examples fmt vet clean

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
# internal/diskio/codec_test.go), of the record frame every checksummed Get
# strips (see internal/diskio/frame_test.go), of the CF-tree codec and the
# stored point block on hostile bytes (see internal/cf/codec_test.go and
# internal/birch/birch_test.go), and of the miners' and the monitor's
# position records on hostile bytes (see checkpoint_test.go).
race-differential:
	$(GO) test -race -run 'TestDifferential|TestConcurrentReaders' -count=1 .
	$(GO) test -run '^$$' -fuzz FuzzDifferentialCount -fuzztime 30s .
	$(GO) test -run '^$$' -fuzz FuzzPrefixTreeCount -fuzztime 30s ./internal/itemset/
	$(GO) test -run '^$$' -fuzz FuzzDecodeTxBlock -fuzztime 30s ./internal/itemset/
	$(GO) test -run '^$$' -fuzz FuzzDecodeModel -fuzztime 30s ./internal/borders/
	$(GO) test -run '^$$' -fuzz FuzzPhase2MatchesReference -fuzztime 30s ./internal/birch/
	$(GO) test -run '^$$' -fuzz FuzzLineDecoder -fuzztime 30s ./internal/blockio/
	$(GO) test -run '^$$' -fuzz FuzzBlockCodecAgainstJSON -fuzztime 30s ./internal/blockio/
	$(GO) test -run '^$$' -fuzz FuzzDecodeJournal -fuzztime 30s ./internal/diskio/
	$(GO) test -run '^$$' -fuzz FuzzSortedIntsCodec -fuzztime 30s ./internal/diskio/
	$(GO) test -run '^$$' -fuzz FuzzUnframe -fuzztime 30s ./internal/diskio/
	$(GO) test -run '^$$' -fuzz FuzzDecodeTree -fuzztime 30s ./internal/cf/
	$(GO) test -run '^$$' -fuzz FuzzDecodePointBlock -fuzztime 30s ./internal/birch/
	$(GO) test -run '^$$' -fuzz FuzzDecodeCheckpointMeta -fuzztime 30s .
	$(GO) test -run '^$$' -fuzz FuzzDecodeMonitorMeta -fuzztime 30s .

cover:
	$(GO) test -cover ./...

# The CI gate: static analysis plus the full suite under the race detector.
check: lint-metrics
	$(GO) vet ./...
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
# cache differential/coherence suite, and the backend-parameterized fault
# sweep — all under the race detector.
backends:
	$(GO) test -race -count=1 ./internal/diskio/...
	$(GO) test -run '^$$' -fuzz FuzzKVFileReopen -fuzztime 30s ./internal/diskio/kvfile/
	$(GO) test -race -short -count=1 -run 'TestFaultSweepBackends|TestScalingBackends' . ./internal/bench/

# Exhaustive crash-at-every-operation sweep with torn-write injection (see
# faultsweep_test.go): every run is killed at one store-operation index,
# restarted, resumed from its last checkpoint, and must end byte-identical
# to a fault-free run. FAULTSWEEP_FLAGS=-short samples ~40 indices per miner
# instead of all of them.
FAULTSWEEP_FLAGS ?=
faultsweep:
	$(GO) test -race $(FAULTSWEEP_FLAGS) -run 'FaultSweep|CrashSweep' ./...

# The exactly-once resilience gate (see chaos_e2e_test.go): the fault
# injection proxy's own suite, the resilient client against scripted fault
# servers, and the headline e2e — demon-feed's client driven through resets,
# torn writes, stalls, latency and a mid-retry server restart, with the
# recovered store digest-compared against a fault-free run — and a namespace
# reopening over a fresh handle after its store handle died, all under the
# race detector. Short mode keeps the crash sweeps sampled.
chaos:
	$(GO) test -race -short -count=1 ./internal/chaos/ ./internal/client/
	$(GO) test -race -short -count=1 -run 'Chaos|CrashSweep|Reopen|TestIngest|TestHTTP|TestSeq|TestRecoverSeq' ./internal/serve/

# Smoke-test the resident server: first the kill-during-ingest e2e —
# stream into two namespaces, SIGTERM mid-stream, restart, digest-compare
# against an uninterrupted run — under the race detector, then the real
# binary answering /healthz, /readyz, /tracez (an end-to-end traced ingest)
# and /metricsz in both JSON and Prometheus exposition, drain-exiting on
# SIGTERM, and logging nothing but JSON records that carry the trace ID (see
# scripts/serve-smoke.sh).
serve-smoke: bin
	$(GO) test -race -count=1 -run TestE2EDrainRestartDigest ./internal/serve/
	./scripts/serve-smoke.sh

# Every testing.B benchmark: the lab's registry, one sub-benchmark per paper
# table/figure and ablation (BenchmarkLab/<name> in internal/bench, the same
# entries demon-bench runs), the window miner's step at the window-mem
# shape (BenchmarkWindowStep in the root package: ingest plus the GEMM step
# over w = 4 slots), the monitor's step at t = 16 and its resume over 16
# blocks (BenchmarkMonitorStep and BenchmarkResumeMonitor, same package),
# and the kernels beside the code they measure (BenchmarkCount in
# internal/borders, BenchmarkCountECUT and BenchmarkMaterialize in
# internal/tidlist, phase 2 in internal/birch, BenchmarkOpen and
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

vet:
	$(GO) vet ./...

clean:
	$(GO) clean ./...
	rm -rf bin
