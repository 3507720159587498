package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// BucketCount is one occupied histogram bucket: Le is the bucket's inclusive
// upper bound and Count the number of observations that landed in it.
type BucketCount struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is the frozen state of a Histogram. Only occupied buckets
// are listed, in increasing Le order.
type HistogramSnapshot struct {
	Count   int64         `json:"count"`
	Sum     int64         `json:"sum"`
	Min     int64         `json:"min"`
	Max     int64         `json:"max"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// TimerSnapshot is the frozen state of a Timer; all values are nanoseconds.
type TimerSnapshot struct {
	Count   int64         `json:"count"`
	TotalNs int64         `json:"total_ns"`
	MinNs   int64         `json:"min_ns"`
	MaxNs   int64         `json:"max_ns"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of every instrument in a Registry. Maps
// marshal with sorted keys, so the JSON and text renderings of equal
// snapshots are byte-identical (snapshots carry no wall-clock timestamp for
// exactly this reason).
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Timers     map[string]TimerSnapshot     `json:"timers,omitempty"`
}

func histSnapshot(h *Histogram) HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load(), Max: h.max.Load()}
	if s.Count > 0 {
		s.Min = h.min.Load()
	}
	for i := range h.buckets {
		if c := h.buckets[i].Load(); c != 0 {
			s.Buckets = append(s.Buckets, BucketCount{Le: BucketUpperBound(i), Count: c})
		}
	}
	return s
}

// Snapshot runs the registered collectors, then freezes every instrument.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.RLock()
	collectors := make([]func(*Registry), len(r.collectors))
	copy(collectors, r.collectors)
	r.mu.RUnlock()
	for _, fn := range collectors {
		fn(r)
	}

	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.v.Load()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.v.Load()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			s.Histograms[name] = histSnapshot(h)
		}
	}
	if len(r.timers) > 0 {
		s.Timers = make(map[string]TimerSnapshot, len(r.timers))
		for name, t := range r.timers {
			hs := histSnapshot(t.hist)
			s.Timers[name] = TimerSnapshot{
				Count: hs.Count, TotalNs: hs.Sum, MinNs: hs.Min, MaxNs: hs.Max, Buckets: hs.Buckets,
			}
		}
	}
	return s
}

// Delta returns this snapshot minus prev: counters, histogram and timer
// tallies are subtracted (bucket-wise), gauges keep their current value.
// Instruments absent from prev pass through unchanged; instruments that did
// not move are dropped. A histogram's or timer's Min and Max become bounds
// on the window's own extremes (see HistogramSnapshot.delta).
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	out := Snapshot{}
	for name, v := range s.Counters {
		if d := v - prev.Counters[name]; d != 0 {
			if out.Counters == nil {
				out.Counters = make(map[string]int64)
			}
			out.Counters[name] = d
		}
	}
	if len(s.Gauges) > 0 {
		out.Gauges = make(map[string]int64, len(s.Gauges))
		for name, v := range s.Gauges {
			out.Gauges[name] = v
		}
	}
	for name, h := range s.Histograms {
		if d, moved := h.delta(prev.Histograms[name]); moved {
			if out.Histograms == nil {
				out.Histograms = make(map[string]HistogramSnapshot)
			}
			out.Histograms[name] = d
		}
	}
	for name, t := range s.Timers {
		ph := prev.Timers[name]
		d, moved := HistogramSnapshot{Count: t.Count, Sum: t.TotalNs, Min: t.MinNs, Max: t.MaxNs, Buckets: t.Buckets}.
			delta(HistogramSnapshot{Count: ph.Count, Sum: ph.TotalNs, Min: ph.MinNs, Max: ph.MaxNs, Buckets: ph.Buckets})
		if moved {
			if out.Timers == nil {
				out.Timers = make(map[string]TimerSnapshot)
			}
			out.Timers[name] = TimerSnapshot{Count: d.Count, TotalNs: d.Sum, MinNs: d.Min, MaxNs: d.Max, Buckets: d.Buckets}
		}
	}
	return out
}

// delta subtracts prev bucket-wise. The whole-run Min and Max say nothing
// about the window, so the delta's are bounds taken from the window's own
// occupied buckets: its smallest observation is at least Min, its largest at
// most Max — and, when nothing negative was ever observed, at most the
// window's Sum.
func (h HistogramSnapshot) delta(prev HistogramSnapshot) (HistogramSnapshot, bool) {
	if h.Count == prev.Count {
		return HistogramSnapshot{}, false
	}
	out := HistogramSnapshot{Count: h.Count - prev.Count, Sum: h.Sum - prev.Sum, Min: h.Min, Max: h.Max}
	prevByLe := make(map[int64]int64, len(prev.Buckets))
	for _, b := range prev.Buckets {
		prevByLe[b.Le] = b.Count
	}
	for _, b := range h.Buckets {
		if d := b.Count - prevByLe[b.Le]; d != 0 {
			out.Buckets = append(out.Buckets, BucketCount{Le: b.Le, Count: d})
		}
	}
	if n := len(out.Buckets); n > 0 {
		// Bucket Le = 2^i - 1 holds [2^(i-1), Le]; bucket 0 holds v <= 0.
		if lo := out.Buckets[0].Le; lo > 0 {
			out.Min = max(out.Min, (lo+1)/2)
		}
		out.Max = min(out.Max, out.Buckets[n-1].Le)
	}
	if h.Min >= 0 {
		out.Max = min(out.Max, out.Sum)
	}
	return out, true
}

// WriteJSON renders the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteText renders the snapshot as aligned name/value lines, grouped by
// instrument kind and sorted by name. Timers print totals in seconds with
// counts and mean latencies.
func (s Snapshot) WriteText(w io.Writer) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	for _, name := range sortedKeys(s.Counters) {
		p("counter   %-40s %d\n", name, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		p("gauge     %-40s %d\n", name, s.Gauges[name])
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		mean := 0.0
		if h.Count > 0 {
			mean = float64(h.Sum) / float64(h.Count)
		}
		p("histogram %-40s count=%d sum=%d min=%d max=%d mean=%.1f\n",
			name, h.Count, h.Sum, h.Min, h.Max, mean)
	}
	for _, name := range sortedKeys(s.Timers) {
		t := s.Timers[name]
		mean := time.Duration(0)
		if t.Count > 0 {
			mean = time.Duration(t.TotalNs / t.Count)
		}
		p("timer     %-40s count=%d total=%v mean=%v max=%v\n",
			name, t.Count, time.Duration(t.TotalNs), mean, time.Duration(t.MaxNs))
	}
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
