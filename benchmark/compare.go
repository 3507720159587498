package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
)

// quartileSpread returns the distance between the first and third quartile
// of the values as a share of their median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives. Fewer than two values have no
// spread.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quantile := func(k int) float64 {
		pos := float64(k*(n+1)) / 4 // 1-based position, exclusive method
		j := min(max(int(pos), 1), n-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	med, _ := median(s)
	if med == 0 {
		return 0
	}
	return (quantile(3) - quantile(1)) / med
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// incomparable reports why two reports did not measure the same thing, or "".
func incomparable(a, b *report) string {
	switch {
	case a.Seed != b.Seed:
		return fmt.Sprintf("seeds differ: %d and %d", a.Seed, b.Seed)
	case a.Seconds != b.Seconds || a.Smoke != b.Smoke:
		return "run lengths differ"
	case !reflect.DeepEqual(a.Sizes, b.Sizes):
		return "workload sizes differ"
	case a.Env.GOMAXPROCS != b.Env.GOMAXPROCS:
		return fmt.Sprintf("GOMAXPROCS differs: %d and %d", a.Env.GOMAXPROCS, b.Env.GOMAXPROCS)
	case a.Env.NumCPU != b.Env.NumCPU:
		return fmt.Sprintf("nproc differs: %d and %d", a.Env.NumCPU, b.Env.NumCPU)
	case a.Env.Go != b.Env.Go:
		return fmt.Sprintf("Go versions differ: %s and %s", a.Env.Go, b.Env.Go)
	}
	return ""
}

// runSet is the untraced passes of one workload in one report.
type runSet struct {
	values            map[string][]float64
	attempted, failed int
}

func collect(r *report) map[string]*runSet {
	sets := make(map[string]*runSet)
	for _, p := range r.Passes {
		if p.Traced {
			continue
		}
		s := sets[p.Workload]
		if s == nil {
			s = &runSet{values: make(map[string][]float64)}
			sets[p.Workload] = s
		}
		s.attempted += p.Attempted
		s.failed += p.Failed
		for name, m := range p.Metrics {
			s.values[name] = append(s.values[name], m.Value)
		}
	}
	return sets
}

// runCompare prints, per workload, one row per end-to-end metric: the two
// medians, how much worse B is, the bound, and a verdict. It exits 2 when
// the reports are not comparable and 1 on a regression or a larger share of
// failed operations.
func runCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare A.json B.json")
		return 2
	}
	a, err := readReport(args[0])
	if err == nil {
		var b *report
		if b, err = readReport(args[1]); err == nil {
			return compareReports(a, b, stdout, stderr)
		}
	}
	fmt.Fprintln(stderr, "benchmark compare:", err)
	return 2
}

func compareReports(a, b *report, stdout, stderr io.Writer) int {
	if why := incomparable(a, b); why != "" {
		fmt.Fprintln(stderr, "benchmark compare: refusing to compare:", why)
		return 2
	}
	setsA, setsB := collect(a), collect(b)
	exit := 0
	names := make([]string, 0, len(setsA))
	for name := range setsA {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sa, sb := setsA[name], setsB[name]
		if sb == nil {
			continue
		}
		fmt.Fprintf(stdout, "\n== %s (%d and %d runs)\n", name, len(sa.values["setup_s"]), len(sb.values["setup_s"]))
		fmt.Fprintf(stdout, "  %-26s %-6s %14s %14s %9s %7s %8s  %s\n", "metric", "better", "A median", "B median", "B worse", "bound", "spread", "verdict")
		for _, d := range endToEnd {
			ma, okA := median(sa.values[d.name])
			mb, okB := median(sb.values[d.name])
			if !okA || !okB {
				fmt.Fprintf(stdout, "  %-26s %-6s %14s %14s\n", d.name, d.better, "n/a", "n/a")
				continue
			}
			worse := (mb - ma) / ma
			if d.better == "higher" {
				worse = -worse
			}
			spread := max(quartileSpread(sa.values[d.name]), quartileSpread(sb.values[d.name]))
			verdict := "ok"
			switch {
			case spread > d.bound:
				verdict = "unresolved"
			case worse > d.bound:
				verdict = "regressed"
				exit = 1
			}
			fmt.Fprintf(stdout, "  %-26s %-6s %14.4f %14.4f %+8.2f%% %6.0f%% %7.2f%%  %s\n",
				d.name, d.better, ma, mb, 100*worse, 100*d.bound, 100*spread, verdict)
		}
		shareA := float64(sa.failed) / float64(max(sa.attempted, 1))
		shareB := float64(sb.failed) / float64(max(sb.attempted, 1))
		fmt.Fprintf(stdout, "  failed operations: %d of %d and %d of %d\n", sa.failed, sa.attempted, sb.failed, sb.attempted)
		if shareB > shareA {
			fmt.Fprintln(stdout, "  a larger share of operations failed in B: regressed")
			exit = 1
		}
	}
	return exit
}
