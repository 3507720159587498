// Command benchmark is the repository's one yardstick: five named workloads,
// seven end-to-end metrics measured with tracing off, and per-layer metrics
// measured from outside on a second, traced pass. BENCHMARK.json at the
// repository root names it; README.md in this directory explains the
// workloads, the metrics and how they interact.
//
//	go run ./benchmark                          every workload, both passes
//	go run ./benchmark -workload serve-kvfile   one workload while working
//	go run ./benchmark -smoke                   every workload at 1/20 size
//	go run ./benchmark -runs 5 -out A.json      a set of runs for compare
//	go run ./benchmark compare A.json B.json    verdict per metric and workload
//
// The driver's form runs one pass of one workload and ends its output with
// one JSON object:
//
//	bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"github.com/demon-mining/demon/internal/obs"
	"github.com/demon-mining/demon/internal/obs/log"
	"github.com/demon-mining/demon/internal/version"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// environment records where a report was measured; compare refuses reports
// whose environments differ.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Revision   string `json:"revision"`
	Filesystem string `json:"filesystem"` // of the scratch directory
}

// report is what -out writes: every pass of every run, with what compare
// needs to tell whether two reports measured the same thing.
type report struct {
	Env     environment      `json:"env"`
	Seed    int64            `json:"seed"`
	Seconds float64          `json:"seconds"`
	Smoke   bool             `json:"smoke"`
	Sizes   map[string][]int `json:"sizes"` // workload → blocks, records, restarts
	Passes  []*passResult    `json:"passes"`
}

// nameList is a repeatable -workload flag.
type nameList []string

func (l *nameList) String() string     { return strings.Join(*l, ",") }
func (l *nameList) Set(v string) error { *l = append(*l, v); return nil }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names nameList
	fs.Var(&names, "workload", "workload to run (repeatable; default all)")
	seed := fs.Int64("seed", 1, "seed the inputs are made from")
	seconds := fs.Float64("seconds", 10, "how long each pass measures: identical rounds are repeated until this much time has passed")
	trace := fs.String("trace", "both", "0: untraced pass (end-to-end metrics), 1: traced pass (per-layer metrics), both: one after the other")
	smoke := fs.Bool("smoke", false, "every workload at no more than 1/20 size, one round, all output checks on")
	runs := fs.Int("runs", 1, "repeat the selected passes this many times (a set of runs for compare)")
	out := fs.String("out", "", "write the full report as JSON to this file")
	traceOut := fs.String("trace-out", "", "write the spans of the traced passes as JSON to this file")
	dir := fs.String("dir", "", "directory for scratch stores (default: the system temporary directory); a subdirectory is made and removed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if fs.NArg() > 0 {
		return fail(fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	}
	var passes []bool // traced?
	switch *trace {
	case "0":
		passes = []bool{false}
	case "1":
		passes = []bool{true}
	case "both":
		passes = []bool{false, true}
	default:
		return fail(fmt.Errorf("-trace %q: want 0, 1 or both", *trace))
	}
	var selected []*workload
	for _, n := range names {
		w, ok := findWorkload(n)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", n))
		}
		selected = append(selected, w)
	}
	if len(selected) == 0 {
		for i := range workloads {
			selected = append(selected, &workloads[i])
		}
	}
	if *seconds <= 0 || *runs < 1 {
		return fail(fmt.Errorf("-seconds and -runs must be positive"))
	}

	// One load-generating goroutine drives every workload; the system under
	// test gets at most two threads, the size of the sandbox.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(min(runtime.NumCPU(), 2)))
	// The served workloads swap in a registry per server and would log every
	// open and drain.
	defer obs.SetDefault(obs.Default())
	logger := log.Default()
	defer logger.SetLevel(logger.Level())
	logger.SetLevel(log.LevelError)

	scratch, err := os.MkdirTemp(*dir, "demon-benchmark-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(scratch)
	// An interrupt is an exit path too: the scratch directory goes with it.
	interrupted := make(chan os.Signal, 1)
	signal.Notify(interrupted, os.Interrupt, syscall.SIGTERM)
	go func() {
		if _, ok := <-interrupted; ok {
			os.RemoveAll(scratch)
			os.Exit(130)
		}
	}()
	defer func() {
		signal.Stop(interrupted)
		close(interrupted)
	}()

	rep := &report{
		Env: environment{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
			Revision: version.Get().Revision, Filesystem: filesystemOf(scratch)},
		Seed: *seed, Seconds: *seconds, Smoke: *smoke, Sizes: make(map[string][]int),
	}
	fmt.Fprintf(stdout, "demon benchmark: nproc=%d GOMAXPROCS=%d %s revision=%q seed=%d seconds=%g smoke=%v\n",
		rep.Env.NumCPU, rep.Env.GOMAXPROCS, rep.Env.Go, rep.Env.Revision, *seed, *seconds, *smoke)
	fmt.Fprintf(stdout, "scratch=%s filesystem=%s; flush policy: kvfile two fsyncs per mutation with auto-compaction, file temp-file+rename+fsync per Put, mem none\n",
		scratch, rep.Env.Filesystem)
	if rep.Env.Filesystem == "tmpfs" {
		fmt.Fprintln(stderr, "benchmark: warning: scratch directory is on tmpfs, where fsync is free; the serve-* latencies are not comparable with a disk's (use -dir)")
	}

	opts := options{seed: *seed, seconds: *seconds, smoke: *smoke, dir: scratch}
	correct := true
	var spans map[string][]span
	for r := 0; r < *runs; r++ {
		for _, w := range selected {
			sz := w.full
			if *smoke {
				sz = w.smoke
			}
			rep.Sizes[w.name] = []int{sz.blocks, sz.records, sz.restarts}
			var untraced *passResult
			for _, traced := range passes {
				t0 := time.Now()
				res, err := runPass(w, opts, traced)
				if err != nil {
					return fail(fmt.Errorf("%s: %w", w.name, err))
				}
				rep.Passes = append(rep.Passes, res)
				correct = correct && res.Correct
				printPass(stdout, w, res, time.Since(t0))
				if !traced {
					untraced = res
				} else {
					if untraced != nil {
						a, b := untraced.Metrics["records_per_s"].Value, res.Metrics["bench.traced_records_per_s"].Value
						fmt.Fprintf(stdout, "  traced pass ran at %.1f records/s against %.1f untraced (%+.2f%%)\n", b, a, 100*(b-a)/a)
					}
					if *traceOut != "" {
						if spans == nil {
							spans = make(map[string][]span)
						}
						spans[w.name] = res.spans
					}
				}
				printContract(stdout, res)
			}
		}
	}
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			return fail(err)
		}
	}
	if *traceOut != "" {
		if err := writeJSON(*traceOut, spans); err != nil {
			return fail(err)
		}
	}
	if !correct {
		fmt.Fprintln(stderr, "benchmark: an output differs from its oracle")
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printPass prints every metric of a pass by name with its unit.
func printPass(w io.Writer, wl *workload, res *passResult, took time.Duration) {
	kind, decls := "end-to-end metrics, tracing off", endToEnd
	if res.Traced {
		kind, decls = "per-layer metrics, traced", perLayer
	}
	fmt.Fprintf(w, "\n== %s: %s (%.1f s; %d round(s); %d operations attempted, %d failed; samples: %d blocks, %d queries, %d restarts)\n",
		wl.name, kind, took.Seconds(), res.Rounds, res.Attempted, res.Failed, res.Samples["block"], res.Samples["query"], res.Samples["restart"])
	if res.Mismatch != "" {
		fmt.Fprintf(w, "  OUTPUT CHECK FAILED: %s\n", res.Mismatch)
	}
	for _, d := range decls {
		m, ok := res.Metrics[d.name]
		switch {
		case !ok:
			fmt.Fprintf(w, "  %-40s %14s %s (too few samples)\n", d.name, "n/a", d.unit)
		case d.name == "block_tail_ms":
			n := res.Samples["block"]
			fmt.Fprintf(w, "  %-40s %14.4f %s (p%.0f of %d samples)\n", d.name, m.Value, m.Unit, 100*float64(n-tailBeyond(n))/float64(n), n)
		default:
			fmt.Fprintf(w, "  %-40s %14.4f %s\n", d.name, m.Value, m.Unit)
		}
	}
}

// printContract ends a pass with the one-line JSON object the driver reads.
func printContract(w io.Writer, res *passResult) {
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	fmt.Fprintf(w, "%s\n", line)
}

// filesystemOf names the filesystem type a directory is on, from the mount
// table; "unknown" where there is none to read.
func filesystemOf(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, fstype := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) >= len(best) {
			best, fstype = mp, f[2]
		}
	}
	return fstype
}
