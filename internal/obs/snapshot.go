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

// TimerSnapshot is the frozen state of a Timer; all values are nanoseconds.
// Only occupied buckets are listed, in increasing Le order.
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
	Counters map[string]int64         `json:"counters,omitempty"`
	Gauges   map[string]int64         `json:"gauges,omitempty"`
	Timers   map[string]TimerSnapshot `json:"timers,omitempty"`
}

func timerSnapshot(h *histogram) TimerSnapshot {
	s := TimerSnapshot{Count: h.count.Load(), TotalNs: h.sum.Load(), MaxNs: h.max.Load()}
	if s.Count > 0 {
		s.MinNs = h.min.Load()
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
	if len(r.timers) > 0 {
		s.Timers = make(map[string]TimerSnapshot, len(r.timers))
		for name, t := range r.timers {
			s.Timers[name] = timerSnapshot(t.hist)
		}
	}
	return s
}

// Delta returns this snapshot minus prev: counters and timer tallies are
// subtracted (bucket-wise), gauges keep their current value. Instruments
// absent from prev pass through unchanged; instruments that did not move are
// dropped. A timer's Min and Max become bounds on the window's own extremes
// (see TimerSnapshot.delta).
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
	for name, t := range s.Timers {
		if d, moved := t.delta(prev.Timers[name]); moved {
			if out.Timers == nil {
				out.Timers = make(map[string]TimerSnapshot)
			}
			out.Timers[name] = d
		}
	}
	return out
}

// delta subtracts prev bucket-wise. The whole-run Min and Max say nothing
// about the window, so the delta's are bounds taken from the window's own
// occupied buckets: its smallest observation is at least Min, its largest at
// most Max — and, when nothing negative was ever observed, at most the
// window's Sum.
func (h TimerSnapshot) delta(prev TimerSnapshot) (TimerSnapshot, bool) {
	if h.Count == prev.Count {
		return TimerSnapshot{}, false
	}
	out := TimerSnapshot{Count: h.Count - prev.Count, TotalNs: h.TotalNs - prev.TotalNs, MinNs: h.MinNs, MaxNs: h.MaxNs}
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
			out.MinNs = max(out.MinNs, (lo+1)/2)
		}
		out.MaxNs = min(out.MaxNs, out.Buckets[n-1].Le)
	}
	if h.MinNs >= 0 {
		out.MaxNs = min(out.MaxNs, out.TotalNs)
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
