package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestSmoke runs the whole command at smoke size: every workload, both
// passes, every output check. It fails the day an API the benchmark calls
// changes shape or a model stops matching its oracle.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload, durable ones included")
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-dir", t.TempDir()}, &stdout, &stderr); code != 0 {
		t.Fatalf("benchmark -smoke exited %d: %s", code, stderr.String())
	}
	type result struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}
	var results []result
	for _, line := range strings.Split(stdout.String(), "\n") {
		if strings.HasPrefix(line, "{") {
			var r result
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatalf("result line %q: %v", line, err)
			}
			results = append(results, r)
		}
	}
	if want := 2 * len(workloads); len(results) != want {
		t.Fatalf("%d result lines, want %d (two passes of every workload)", len(results), want)
	}
	for i, r := range results {
		name := workloads[i/2].name
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: correct=%v, %d of %d operations failed", name, r.Correct, r.Failed, r.Attempted)
		}
		decls := endToEnd
		if i%2 == 1 {
			decls = perLayer
		}
		for _, d := range decls {
			// At smoke size there are too few blocks for any tail.
			if _, ok := r.Metrics[d.name]; !ok && d.name != "block_tail_ms" {
				t.Errorf("%s: metric %s is missing", name, d.name)
			}
		}
		if len(r.Metrics) > len(decls) {
			t.Errorf("%s: %d metrics reported, %d declared", name, len(r.Metrics), len(decls))
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(blockMs ...float64) *report {
		r := &report{Seed: 1, Seconds: 10, Sizes: map[string][]int{"itemset-mem": {65, 2000, 15}},
			Env: environment{NumCPU: 2, GOMAXPROCS: 2, Go: "go1.24.0"}}
		for _, v := range blockMs {
			r.Passes = append(r.Passes, &passResult{Workload: "itemset-mem", Attempted: 100, Correct: true,
				Metrics: map[string]metric{"block_p50_ms": {v, "ms"}, "records_per_s": {1e6 / v, "records/s"}}})
		}
		return r
	}
	for _, c := range []struct {
		name string
		a, b *report
		exit int
		want string
	}{
		{"same", mk(40, 41, 42), mk(41, 42, 40), 0, "ok"},
		{"slower", mk(40, 41, 42), mk(60, 61, 62), 1, "regressed"},
		{"noisy", mk(40, 80, 41, 90), mk(41, 85, 40, 88), 0, "unresolved"},
	} {
		var out, errs bytes.Buffer
		if got := compareReports(c.a, c.b, &out, &errs); got != c.exit {
			t.Errorf("%s: exit %d, want %d\n%s", c.name, got, c.exit, out.String())
		}
		if !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: no %q row in\n%s", c.name, c.want, out.String())
		}
	}
	other := mk(40)
	other.Env.GOMAXPROCS = 1
	var out, errs bytes.Buffer
	if got := compareReports(mk(40), other, &out, &errs); got != 2 || !strings.Contains(errs.String(), "GOMAXPROCS") {
		t.Errorf("differing GOMAXPROCS: exit %d, stderr %q", got, errs.String())
	}
	failing := mk(40, 41)
	failing.Passes[0].Failed = 3
	out.Reset()
	if got := compareReports(mk(40, 41), failing, &out, &errs); got != 1 {
		t.Errorf("a larger failed share: exit %d, want 1", got)
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) = [2.75, 5.5, 8.25]
	got := quartileSpread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if want := (8.25 - 2.75) / 5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
}
