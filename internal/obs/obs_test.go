package obs

import (
	"bytes"
	"math"
	"testing"
	"time"
)

// TestDisabledPathAllocatesNothing is the contract that lets the maintainers
// instrument unconditionally: with the registry disabled, every hot-path
// instrument operation is an atomic load plus a branch — zero allocations.
func TestDisabledPathAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x.counter")
	g := r.Gauge("x.gauge")
	h := r.Histogram("x.hist")
	tm := r.Timer("x.timer")
	r.SetEnabled(false)

	cases := []struct {
		name string
		fn   func()
	}{
		{"counter.add", func() { c.Add(7) }},
		{"gauge.set", func() { g.Set(7) }},
		{"histogram.observe", func() { h.Observe(7) }},
		{"timer.span", func() { s := tm.Start(); s.End() }},
		{"timer.record", func() { tm.Record(7 * time.Millisecond) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(100, tc.fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op on disabled registry, want 0", tc.name, allocs)
		}
	}

	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || tm.Count() != 0 {
		t.Error("disabled instruments recorded values")
	}
}

// TestEnabledHotPathAllocatesNothing: recording itself must not allocate
// either — only instrument creation may.
func TestEnabledHotPathAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x.counter")
	h := r.Histogram("x.hist")
	tm := r.Timer("x.timer")

	for name, fn := range map[string]func(){
		"counter.add":       func() { c.Add(7) },
		"histogram.observe": func() { h.Observe(7) },
		"timer.span":        func() { s := tm.Start(); s.End() },
	} {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op on enabled registry, want 0", name, allocs)
		}
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	if r.Enabled() {
		t.Error("nil registry reports enabled")
	}
	r.SetEnabled(true)
	r.Reset()
	r.AddCollector(nil)
	c := r.Counter("c")
	c.Add(1)
	c.Inc()
	r.Gauge("g").Set(1)
	r.Histogram("h").Observe(1)
	tm := r.Timer("t")
	tm.Record(time.Second)
	s := tm.Start()
	if d := s.End(); d != 0 {
		t.Errorf("nil-timer span measured %v, want 0", d)
	}
	s.EndObserving(c, 5)
	if got := r.Snapshot(); len(got.Counters) != 0 {
		t.Errorf("nil registry snapshot not empty: %+v", got)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		v     int64
		index int
		le    int64
	}{
		{-5, 0, 0},
		{0, 0, 0},
		{1, 1, 1},
		{2, 2, 3},
		{3, 2, 3},
		{4, 3, 7},
		{7, 3, 7},
		{8, 4, 15},
		{1023, 10, 1023},
		{1024, 11, 2047},
		{math.MaxInt64, 63, math.MaxInt64},
	}
	for _, tc := range cases {
		if got := BucketIndex(tc.v); got != tc.index {
			t.Errorf("BucketIndex(%d) = %d, want %d", tc.v, got, tc.index)
		}
		if got := BucketUpperBound(tc.index); got != tc.le {
			t.Errorf("BucketUpperBound(%d) = %d, want %d", tc.index, got, tc.le)
		}
	}

	r := NewRegistry()
	h := r.Histogram("h")
	for _, v := range []int64{0, 1, 2, 3, 4, 7, 8} {
		h.Observe(v)
	}
	snap := r.Snapshot().Histograms["h"]
	want := []BucketCount{{Le: 0, Count: 1}, {Le: 1, Count: 1}, {Le: 3, Count: 2}, {Le: 7, Count: 2}, {Le: 15, Count: 1}}
	if len(snap.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", snap.Buckets, want)
	}
	for i, b := range want {
		if snap.Buckets[i] != b {
			t.Errorf("bucket[%d] = %+v, want %+v", i, snap.Buckets[i], b)
		}
	}
	if snap.Count != 7 || snap.Sum != 25 || snap.Min != 0 || snap.Max != 8 {
		t.Errorf("summary = count=%d sum=%d min=%d max=%d, want 7/25/0/8",
			snap.Count, snap.Sum, snap.Min, snap.Max)
	}
}

// TestSnapshotDeterminism: equal registry states must render to byte-identical
// JSON and text, so artifact diffs are meaningful.
func TestSnapshotDeterminism(t *testing.T) {
	fill := func() *Registry {
		r := NewRegistry()
		for _, n := range []string{"z.last", "a.first", "m.middle"} {
			r.Counter(n).Add(3)
			r.Gauge(n).Set(4)
			r.Histogram(n).Observe(100)
			r.Timer(n).Record(time.Millisecond)
		}
		return r
	}
	r1, r2 := fill(), fill()

	var j1, j2, t1, t2 bytes.Buffer
	if err := r1.Snapshot().WriteJSON(&j1); err != nil {
		t.Fatal(err)
	}
	if err := r2.Snapshot().WriteJSON(&j2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1.Bytes(), j2.Bytes()) {
		t.Errorf("JSON renderings differ:\n%s\n---\n%s", j1.Bytes(), j2.Bytes())
	}
	if err := r1.Snapshot().WriteText(&t1); err != nil {
		t.Fatal(err)
	}
	if err := r2.Snapshot().WriteText(&t2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(t1.Bytes(), t2.Bytes()) {
		t.Errorf("text renderings differ:\n%s\n---\n%s", t1.Bytes(), t2.Bytes())
	}

	// Repeated marshals of the same live registry are also byte-identical.
	var j3 bytes.Buffer
	if err := r1.Snapshot().WriteJSON(&j3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1.Bytes(), j3.Bytes()) {
		t.Error("re-marshalling the same registry changed the JSON output")
	}
}

func TestSnapshotDelta(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(10)
	r.Counter("still").Add(1)
	r.Gauge("g").Set(5)
	r.Histogram("h").Observe(3)
	r.Timer("t").Record(100)
	before := r.Snapshot()

	r.Counter("c").Add(7)
	r.Gauge("g").Set(9)
	r.Histogram("h").Observe(3)
	r.Histogram("h").Observe(1000)
	r.Timer("t").Record(200)
	d := r.Snapshot().Delta(before)

	if d.Counters["c"] != 7 {
		t.Errorf("counter delta = %d, want 7", d.Counters["c"])
	}
	if _, ok := d.Counters["still"]; ok {
		t.Error("unmoved counter kept in delta")
	}
	if d.Gauges["g"] != 9 {
		t.Errorf("gauge in delta = %d, want current value 9", d.Gauges["g"])
	}
	h := d.Histograms["h"]
	if h.Count != 2 || h.Sum != 1003 {
		t.Errorf("histogram delta count=%d sum=%d, want 2/1003", h.Count, h.Sum)
	}
	if tm := d.Timers["t"]; tm.Count != 1 || tm.TotalNs != 200 {
		t.Errorf("timer delta count=%d total=%d, want 1/200", tm.Count, tm.TotalNs)
	}
}

// TestSnapshotDeltaBoundsMinMax: a delta's min and max describe the window,
// not the whole run — a 667 ms outlier before the window must not show up as
// the max of a window whose spans total under a millisecond — and for every
// timer in a delta, min <= max <= total.
func TestSnapshotDeltaBoundsMinMax(t *testing.T) {
	r := NewRegistry()
	slow, fast, mixed := r.Timer("slow.then.fast"), r.Timer("fast.then.slow"), r.Timer("zeros")
	slow.Record(667 * time.Millisecond)
	fast.Record(3 * time.Microsecond)
	mixed.Record(5 * time.Second)
	r.Histogram("signed").Observe(1000)
	before := r.Snapshot()
	slow.Record(300 * time.Microsecond)
	slow.Record(500 * time.Microsecond)
	fast.Record(40 * time.Millisecond)
	mixed.Record(0)
	mixed.Record(0)
	r.Histogram("signed").Observe(-50)
	r.Histogram("signed").Observe(20)
	r.Timer("new.in.window").Record(7 * time.Millisecond)
	d := r.Snapshot().Delta(before)

	for name, tm := range d.Timers {
		if tm.Count >= 1 && !(tm.MinNs <= tm.MaxNs && tm.MaxNs <= tm.TotalNs) {
			t.Errorf("%s: min %d, max %d, total %d: want min <= max <= total", name, tm.MinNs, tm.MaxNs, tm.TotalNs)
		}
	}
	if tm := d.Timers["slow.then.fast"]; tm.MaxNs > int64(time.Millisecond) || tm.MinNs < int64(200*time.Microsecond) {
		t.Errorf("slow.then.fast window [300µs, 500µs] reported as [%d, %d]", tm.MinNs, tm.MaxNs)
	}
	if tm := d.Timers["fast.then.slow"]; tm.MaxNs != int64(40*time.Millisecond) || tm.MinNs < int64(20*time.Millisecond) {
		t.Errorf("fast.then.slow window {40ms} reported as [%d, %d]", tm.MinNs, tm.MaxNs)
	}
	if tm := d.Timers["zeros"]; tm.MinNs != 0 || tm.MaxNs != 0 {
		t.Errorf("zeros window {0, 0} reported as [%d, %d]", tm.MinNs, tm.MaxNs)
	}
	if tm := d.Timers["new.in.window"]; tm.MinNs != int64(7*time.Millisecond) || tm.MaxNs != int64(7*time.Millisecond) {
		t.Errorf("new.in.window {7ms} reported as [%d, %d]", tm.MinNs, tm.MaxNs)
	}
	// With a negative observation the sum bounds nothing: the window {-50,
	// 20} sums to -30, yet its max is 20.
	if h := d.Histograms["signed"]; h.Min > -50 || h.Max < 20 || h.Max > 31 {
		t.Errorf("signed window {-50, 20} reported as [%d, %d]", h.Min, h.Max)
	}
}

func TestEndObserving(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("units")
	s := r.Timer("phase").Start()
	s.EndObserving(c, 42)
	if c.Value() != 42 {
		t.Errorf("counter = %d, want 42", c.Value())
	}
	if r.Timer("phase").Count() != 1 {
		t.Error("span not recorded")
	}
}

func TestSetDefaultSwapRestore(t *testing.T) {
	orig := Default()
	mine := NewRegistry()
	prev := SetDefault(mine)
	if prev != orig {
		t.Error("SetDefault did not return the previous registry")
	}
	if Default() != mine {
		t.Error("Default is not the installed registry")
	}
	Default().Counter("test.only").Inc()
	if mine.Counter("test.only").Value() != 1 {
		t.Error("recorded against the wrong registry")
	}
	SetDefault(prev)
	if Default() != orig {
		t.Error("restore failed")
	}
	if got := SetDefault(nil); got != orig {
		t.Error("SetDefault(nil) did not return previous")
	}
	if Default() == nil {
		t.Error("SetDefault(nil) installed a nil registry")
	}
	SetDefault(orig)
}

func TestResetKeepsHandlesLive(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	h := r.Histogram("h")
	tm := r.Timer("t")
	c.Add(5)
	h.Observe(5)
	tm.Record(5)
	r.Reset()
	if c.Value() != 0 || h.Count() != 0 || tm.Count() != 0 {
		t.Error("Reset did not zero instruments")
	}
	c.Add(2)
	if r.Counter("c").Value() != 2 {
		t.Error("handle went dead after Reset")
	}
	snap := r.Snapshot()
	if _, ok := snap.Counters["c"]; !ok {
		t.Error("Reset dropped the registration")
	}
}

func TestCollector(t *testing.T) {
	r := NewRegistry()
	var calls int
	r.AddCollector(func(reg *Registry) {
		calls++
		reg.Gauge("bridged").Set(123)
	})
	snap := r.Snapshot()
	if calls != 1 {
		t.Errorf("collector ran %d times, want 1", calls)
	}
	if snap.Gauges["bridged"] != 123 {
		t.Errorf("bridged gauge = %d, want 123", snap.Gauges["bridged"])
	}
}

func TestLabel(t *testing.T) {
	for in, want := range map[string]string{
		"PT-Scan":   "ptscan",
		"ECUT":      "ecut",
		"ECUT+":     "ecutplus",
		"Hash Tree": "hashtree",
		"a_b.c":     "abc",
	} {
		if got := Label(in); got != want {
			t.Errorf("Label(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 1000; j++ {
				r.Counter("shared").Inc()
				r.Histogram("shared.h").Observe(int64(j))
				s := r.Timer("shared.t").Start()
				s.End()
			}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	if got := r.Counter("shared").Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("shared.h").Count(); got != 8000 {
		t.Errorf("histogram count = %d, want 8000", got)
	}
	snap := r.Snapshot()
	if snap.Histograms["shared.h"].Min != 0 || snap.Histograms["shared.h"].Max != 999 {
		t.Errorf("min/max = %d/%d, want 0/999",
			snap.Histograms["shared.h"].Min, snap.Histograms["shared.h"].Max)
	}
}
