package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	demon "github.com/demon-mining/demon"
	"github.com/demon-mining/demon/internal/diskio"
)

func TestCoverCountsOverlapOnce(t *testing.T) {
	got := cover([]interval{{30, 60}, {10, 40}, {70, 80}, {75, 78}, {90, 90}})
	if want := time.Duration(60); got != want {
		t.Fatalf("cover = %d, want %d", got, want)
	}
}

func TestSelfTimeIsDurationMinusChildCover(t *testing.T) {
	rec := newRecorder()
	root := rec.add(0, "bench.block", 1, 0, 100)
	phase := rec.add(root, "borders.detect", 1, 10, 60)
	rec.add(root, "demon.commit_residual", 1, 60, 90)
	// Two store operations of parallel workers overlap, and one runs past
	// its parent's end: the overlap counts once, the overrun not at all.
	rec.add(phase, "diskio.ops", 1, 20, 40)
	rec.add(phase, "diskio.ops", 1, 30, 50)
	rec.add(phase, "diskio.ops", 1, 55, 70)
	self := selfTimes(rec.spans)
	for name, want := range map[string]time.Duration{
		"bench.block":           20, // 100 - (50 + 30)
		"borders.detect":        15, // 50 - (30 + 5)
		"demon.commit_residual": 30,
		"diskio.ops":            55, // each op's own duration: 20 + 20 + 15
	} {
		if self[name] != want {
			t.Errorf("self time of %s = %d, want %d", name, self[name], want)
		}
	}
	if got := layerOf("borders.detect"); got != "borders" {
		t.Errorf("layerOf = %q", got)
	}
}

func TestMedianAndTailRule(t *testing.T) {
	seq := func(n int) []float64 { // n, n-1, …, 1: unsorted on purpose
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i)
		}
		return xs
	}
	if _, ok := median(nil); ok {
		t.Error("median of nothing reported a value")
	}
	if v, _ := median(seq(5)); v != 3 {
		t.Errorf("median of 1..5 = %v", v)
	}
	if v, _ := median(seq(6)); v != 3.5 {
		t.Errorf("median of 1..6 = %v", v)
	}
	// Fewer than 21 samples: no percentile has ten samples beyond it, and
	// the maximum is never reported in its place.
	if v, ok := tail(seq(20)); ok {
		t.Errorf("tail of 20 samples = %v, want n/a", v)
	}
	for _, c := range []struct {
		n    int
		want float64
	}{
		{21, 11},   // the 11th largest of 21 is the median
		{100, 90},  // the 11th largest
		{200, 190}, // the 11th largest, which is p95 now
		{220, 209}, // p95: 11 samples beyond
		{400, 380}, // p95: 20 samples beyond
	} {
		if v, ok := tail(seq(c.n)); !ok || v != c.want {
			t.Errorf("tail of 1..%d = %v, %v; want %v", c.n, v, ok, c.want)
		}
	}
}

// TestTimedStoreAgreesWithMemStore runs a real miner through the decorator
// and checks its operation and byte counts against the MemStore's own.
func TestTimedStoreAgreesWithMemStore(t *testing.T) {
	rows, err := txBlocks(7, 4, 300)
	if err != nil {
		t.Fatal(err)
	}
	mem := diskio.NewMemStore()
	tr := newTracer()
	m, err := demon.NewItemsetMiner(demon.ItemsetMinerConfig{MinSupport: 0.05, Strategy: demon.ECUT,
		Store: tr.wrap(mem), AutoCheckpointEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	mem.ResetStats()
	tr.store.take() // opening the miner recovers the store; start counting at block 1
	for i, r := range rows {
		t0 := time.Now()
		rep, err := m.AddBlock(r)
		if err != nil {
			t.Fatal(err)
		}
		tr.block(i+1, true, t0, time.Since(t0), itemsetReport(rep, "tidlist.ingest"))
	}
	if _, err := tr.store.Get("no/such/key"); err == nil {
		t.Fatal("Get of an absent key succeeded")
	}
	tr.disk.add(tr.store.take())

	st, d := mem.Stats(), tr.disk
	if d.count[opPut] != st.Writes || d.bytesWritten != st.BytesWritten {
		t.Errorf("decorator saw %d puts of %d bytes, MemStore %d of %d", d.count[opPut], d.bytesWritten, st.Writes, st.BytesWritten)
	}
	if d.count[opGet] != st.Reads || d.bytesRead != st.BytesRead {
		t.Errorf("decorator saw %d gets of %d bytes, MemStore %d of %d", d.count[opGet], d.bytesRead, st.Reads, st.BytesRead)
	}
	if d.count[opPut] == 0 || d.count[opGet] == 0 || d.count[opDelete] == 0 {
		t.Errorf("a transaction stages, promotes and cleans up, yet the decorator counted %v", d.count)
	}
	if d.bytesFinal >= d.bytesWritten || d.bytesFinal == 0 {
		t.Errorf("bytes to final keys = %d of %d written: staging copies should make up the rest", d.bytesFinal, d.bytesWritten)
	}
	// Every block span is covered by its phases: nothing is unattributed.
	if _, unattributed := tr.layerSelf(); unattributed != 0 {
		t.Errorf("unattributed = %v ms per block, want 0", unattributed)
	}
	metrics := make(map[string]float64)
	tr.minerMetrics(metrics)
	if got := metrics["diskio.puts_per_block"] * float64(tr.blocks); got != float64(st.Writes) {
		t.Errorf("diskio.puts_per_block × blocks = %v, want %d", got, st.Writes)
	}
}

// TestBenchmarkJSONMatchesTheCode keeps BENCHMARK.json and the declarations
// the command reports from in step.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name   string   `json:"name"`
		Why    string   `json:"why"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []decl   `json:"workloads"`
		EndToEnd   []decl   `json:"end_to_end"`
		PerLayer   []decl   `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	var gated []workload
	for _, w := range workloads {
		if !w.ungated {
			gated = append(gated, w)
		}
	}
	if len(file.Workloads) != len(gated) {
		t.Fatalf("BENCHMARK.json names %d workloads, the code gates %d", len(file.Workloads), len(gated))
	}
	for i, w := range gated {
		if got := file.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d is %q (%q) in BENCHMARK.json, %q (%q) in the code", i, got.Name, got.Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("why of %s has %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	check := func(kind string, got []decl, want []metricDecl, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json lists %d %s metrics, the code %d", len(got), kind, len(want))
		}
		for i, w := range want {
			better := w.better
			if better == "" {
				better = "lower"
			}
			g := got[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != better {
				t.Errorf("%s metric %d is %+v in BENCHMARK.json, the code declares %s [%s] %s", kind, i, g, w.name, w.unit, better)
			}
			if bounded && (g.Bound == nil || *g.Bound != w.bound) {
				t.Errorf("%s: bound %v in BENCHMARK.json, %v in the code", w.name, g.Bound, w.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s: a per-layer metric has no bound", w.name)
			}
		}
	}
	check("end-to-end", file.EndToEnd, endToEnd, true)
	check("per-layer", file.PerLayer, perLayer, false)
}
