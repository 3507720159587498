package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"github.com/demon-mining/demon/internal/serve"
)

// Constants every workload shares.
const (
	warmupBlocks    = 5 // applied at the start of every round, excluded from every timed metric
	checkpointEvery = 10
	ruleConfidence  = 0.5
	setupRepeats    = 3 // setup_s is the median of this many set-ups
)

// sizes fixes the work of one round. A round is always run to its end, so
// every count derived from it repeats exactly; -seconds only decides how
// many identical rounds a run pools its timings from.
type sizes struct {
	blocks   int // blocks per round, warm-up included
	records  int // transactions or points per block
	restarts int // restart cycles after each round
}

// subject is one workload's system under test. The pass hands it blocks in
// a closed loop from a single goroutine: block i, then one read query, then
// block i+1.
type subject interface {
	// prepare makes the inputs from the seed.
	prepare(seed int64) error
	// open starts a round on a fresh store (and server and namespace).
	open(tr *tracer) error
	// block hands over block i and returns once the model reflects it.
	block(i int, timed bool) (time.Duration, error)
	// query issues the workload's read query.
	query() (time.Duration, error)
	// checkpoint forces the round's final checkpoint.
	checkpoint() error
	// verify compares the outputs with the oracle; a mismatch is an
	// errMismatch.
	verify() error
	// close ends the round and returns the bytes its store holds.
	close() (int64, error)
	// restart goes from the persisted state to the first answered query.
	restart() (time.Duration, error)
	// discard removes the round's persisted state.
	discard()
	// layers fills the per-layer metrics after a traced pass: what the
	// tracer recorded, and kernel probes that call layer functions directly
	// on data taken from the run (dir is scratch space for them).
	layers(m map[string]float64, dir string) error
}

// workload names one subject with its sizes and the reason it exists.
type workload struct {
	name, why   string
	full, smoke sizes
	// ungated keeps a workload out of BENCHMARK.json: it runs by name and in
	// the full command, but its timings cannot hold a bound.
	ungated bool
	new     func(sz sizes, dir string) subject
}

var workloads = []workload{
	{
		name: "itemset-mem",
		why:  "unrestricted-window BORDERS+ECUT on mem: CPU-bound in borders/itemset, storage does almost nothing; lattice work shows here, commit-path work must not",
		full: sizes{blocks: 65, records: 2000, restarts: 15}, smoke: sizes{blocks: 8, records: 800, restarts: 2},
		new: func(sz sizes, _ string) subject {
			return &txMiner{sz: sz, minSup: 0.015, workers: 1}
		},
	},
	{
		name: "window-mem",
		why:  "GEMM w=4 with Workers=2 on mem: w future-window models per block and the only par-sharded path, so a serial win that breaks the parallel path shows",
		full: sizes{blocks: 65, records: 2000, restarts: 15}, smoke: sizes{blocks: 8, records: 800, restarts: 2},
		new: func(sz sizes, _ string) subject {
			return &txMiner{sz: sz, minSup: 0.0175, window: 4, workers: 2}
		},
	},
	{
		name: "cluster-mem",
		why:  "BIRCH+ K=3 on mem: the only workload in cf/birch, phase 2 runs at query time; every itemset and storage change predicts no change here",
		full: sizes{blocks: 45, records: 5000, restarts: 15}, smoke: sizes{blocks: 8, records: 500, restarts: 2},
		new: func(sz sizes, _ string) subject {
			return &clusterMiner{sz: sz, k: 3}
		},
	},
	{
		name: "itemset-kvfile",
		why:  "BORDERS+ECUT on the kvfile stack with flushes batched out: ~1,000 small TID-list keys per block through staging, checksum, retry and the log; the commit path's own cost, without the device's noise",
		full: sizes{blocks: 65, records: 1000, restarts: 15}, smoke: sizes{blocks: 8, records: 300, restarts: 2},
		new: func(sz sizes, dir string) subject {
			return &txMiner{sz: sz, minSup: 0.02, workers: 1, kvDir: dir}
		},
	},
	{
		name:    "serve-kvfile",
		why:     "served ECUT on kvfile at its default flush policy: ~1,000 small keys per block, two fsyncs per mutation; 97 % flush wait, so it swings with the sandbox's device and is kept out of the gate",
		ungated: true,
		full:    sizes{blocks: 26, records: 1000, restarts: 15}, smoke: sizes{blocks: 3, records: 150, restarts: 1},
		new: func(sz sizes, dir string) subject {
			return &served{sz: sz, dir: dir, spec: serve.Spec{Name: namespace, Kind: serve.KindItemset,
				MinSupport: 0.02, Strategy: "ecut", Store: "kvfile", CheckpointEvery: checkpointEvery, Workers: 1}}
		},
	},
	{
		name: "serve-file",
		why:  "served PT-Scan on the default file backend: a few large values per commit and old blocks read back during updates; blockio, client and queue hand-off are a visible share",
		full: sizes{blocks: 55, records: 4000, restarts: 15}, smoke: sizes{blocks: 8, records: 1000, restarts: 2},
		new: func(sz sizes, dir string) subject {
			return &served{sz: sz, dir: dir, spec: serve.Spec{Name: namespace, Kind: serve.KindItemset,
				MinSupport: 0.02, CheckpointEvery: checkpointEvery, Workers: 1}}
		},
	},
}

func findWorkload(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// errMismatch marks an output that differs from its oracle; every other
// error is an operation that failed outright.
var errMismatch = errors.New("output differs from the oracle")

func mismatchf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{errMismatch}, args...)...)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// passResult is what one pass of one workload measured.
type passResult struct {
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Rounds    int               `json:"rounds"`
	Samples   map[string]int    `json:"samples"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Correct   bool              `json:"correct"`
	Metrics   map[string]metric `json:"metrics"`
	Mismatch  string            `json:"mismatch,omitempty"`

	spans []span // traced pass only; written by -trace-out
}

// options are the settings of a run that a pass needs.
type options struct {
	seed    int64
	seconds float64
	smoke   bool
	dir     string
}

// usage is the process's resource consumption at one instant.
type usage struct {
	wall time.Time
	cpu  time.Duration
	mem  runtime.MemStats
}

func snapshot() usage {
	u := usage{wall: time.Now(), cpu: cpuTime()}
	runtime.ReadMemStats(&u.mem)
	return u
}

// runPass runs one workload once: untraced for the end-to-end metrics, or
// traced for the per-layer ones.
func runPass(w *workload, o options, traced bool) (*passResult, error) {
	sz, warm := w.full, warmupBlocks
	if o.smoke {
		sz, warm = w.smoke, 2
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	res := &passResult{Workload: w.name, Traced: traced, Correct: true,
		Samples: make(map[string]int), Metrics: make(map[string]metric)}

	// Set-up: input generation plus store, server and namespace
	// construction, everything before block 1. The untraced pass repeats it
	// and reports the median; the last one is the one the run uses.
	repeats := setupRepeats
	if traced || o.smoke {
		repeats = 1
	}
	var sub subject
	var setups []float64
	for i := 0; i < repeats; i++ {
		if sub != nil {
			if _, err := sub.close(); err != nil {
				return nil, err
			}
			sub.discard()
		}
		t0 := time.Now()
		sub = w.new(sz, o.dir)
		if err := sub.prepare(o.seed); err != nil {
			return nil, err
		}
		if err := sub.open(tr); err != nil {
			sub.discard()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer sub.discard()

	// checked counts an operation whose output is compared with an oracle: a
	// mismatch is recorded and the run goes on, any other error ends it.
	checked := func(err error) error {
		res.Attempted++
		if !errors.Is(err, errMismatch) {
			return err
		}
		res.Failed++
		res.Correct = false
		res.Mismatch = err.Error()
		return nil
	}

	var blockMs, queryMs, restartMs []float64
	var blockTotal time.Duration
	var stored int64
	var before, after usage
	var peakHeap uint64
	box := time.Duration(o.seconds * float64(time.Second))
	if o.smoke {
		box = 0 // one round
	}
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < box; round++ {
		if round > 0 {
			if err := sub.open(tr); err != nil {
				return nil, err
			}
		}
		if round == 0 {
			before = snapshot()
		}
		for i := 0; i < sz.blocks; i++ {
			timed := i >= warm
			d, err := sub.block(i, timed)
			res.Attempted++
			if err != nil {
				return nil, err
			}
			q, err := sub.query()
			res.Attempted++
			if err != nil {
				return nil, fmt.Errorf("query after block %d: %w", i+1, err)
			}
			if timed {
				blockMs = append(blockMs, ms(d))
				queryMs = append(queryMs, ms(q))
				blockTotal += d
			}
			if traced {
				var m runtime.MemStats
				runtime.ReadMemStats(&m)
				peakHeap = max(peakHeap, m.HeapInuse)
			}
		}
		if round == 0 {
			after = snapshot()
		}
		if err := sub.checkpoint(); err != nil {
			return nil, err
		}
		if round == 0 {
			// The oracle is not part of what is measured: the time box is
			// moved past it.
			t0 := time.Now()
			if err := checked(sub.verify()); err != nil {
				return nil, err
			}
			start = start.Add(time.Since(t0))
		}
		n, err := sub.close()
		if err != nil {
			return nil, err
		}
		stored = n
		for i := 0; i < sz.restarts; i++ {
			// Every cycle starts from a collected heap, as a process that has
			// just come up does; without this a restore's time depends on
			// where in its cycle the collector happens to be.
			runtime.GC()
			d, err := sub.restart()
			if err := checked(err); err != nil {
				return nil, fmt.Errorf("restart %d: %w", i+1, err)
			}
			restartMs = append(restartMs, ms(d))
		}
		sub.discard()
		res.Rounds++
	}

	res.Samples["block"] = len(blockMs)
	res.Samples["query"] = len(queryMs)
	res.Samples["restart"] = len(restartMs)
	timedRecords := float64(len(blockMs) * sz.records)
	roundRecords := float64(sz.blocks * sz.records)

	if !traced {
		values := map[string]func() (float64, bool){
			"setup_s":                 func() (float64, bool) { return median(setups) },
			"records_per_s":           func() (float64, bool) { return timedRecords / blockTotal.Seconds(), blockTotal > 0 },
			"block_p50_ms":            func() (float64, bool) { return median(blockMs) },
			"block_tail_ms":           func() (float64, bool) { return tail(blockMs) },
			"query_p50_ms":            func() (float64, bool) { return median(queryMs) },
			"restart_best_ms":         func() (float64, bool) { return best(restartMs) },
			"stored_bytes_per_record": func() (float64, bool) { return float64(stored) / roundRecords, true },
		}
		for _, d := range endToEnd {
			if v, ok := values[d.name](); ok {
				res.Metrics[d.name] = metric{v, d.unit}
			}
		}
		return res, nil
	}

	m := make(map[string]float64)
	if err := sub.layers(m, o.dir); err != nil {
		return nil, fmt.Errorf("per-layer metrics: %w", err)
	}
	loopWall := after.wall.Sub(before.wall).Seconds()
	cpu := (after.cpu - before.cpu).Seconds()
	m["proc.alloc_bytes_per_record"] = float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / roundRecords
	m["proc.allocs_per_record"] = float64(after.mem.Mallocs-before.mem.Mallocs) / roundRecords
	m["proc.peak_heap_mb"] = float64(peakHeap) / (1 << 20)
	m["proc.gc_pause_total_ms"] = float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6
	m["proc.cpu_s"] = cpu
	m["proc.cpu_util"] = cpu / loopWall
	m["bench.traced_records_per_s"] = timedRecords / blockTotal.Seconds()
	if v, ok := median(blockMs); ok {
		m["bench.traced_block_p50_ms"] = v
	}
	m["bench.trace_overhead_pct"] = tr.overheadPct(blockTotal)
	for _, d := range perLayer {
		res.Metrics[d.name] = metric{m[d.name], d.unit}
		delete(m, d.name)
	}
	for name := range m {
		return nil, fmt.Errorf("per-layer metric %s is computed but not declared", name)
	}
	res.spans = tr.rec.spans
	return res, nil
}
