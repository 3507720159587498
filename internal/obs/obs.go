// Package obs is the repository's unified instrumentation layer: a
// zero-dependency (stdlib-only) metrics and tracing substrate shared by every
// DEMON maintainer. The paper's entire evaluation argues from measured
// quantities — bytes fetched per counting strategy, per-phase update cost,
// per-block monitoring latency (Figures 2–10) — so the maintainers record
// those quantities into a process-global Registry that the CLIs and the bench
// harness export as JSON or text snapshots.
//
// Four instrument kinds are provided:
//
//   - Counter: a monotonically increasing atomic int64 (bytes, candidates).
//   - Gauge: a settable atomic int64 (resident sub-clusters, window size).
//   - Histogram: a bounded power-of-two-bucket distribution (latencies,
//     region counts); no allocation on the observe path.
//   - Timer: a Histogram of span durations with Start/End span helpers that
//     support parent/child nesting and an optional tracing hook.
//
// Instruments are named "<subsystem>.<operation>.<unit>" (for example
// "borders.count.ecut.bytes" or "birch.insert.ns"); the full naming scheme is
// documented in README.md.
//
// Cost model: the default registry is disabled until an edge (CLI flag, test,
// bench harness) enables it. A disabled instrument is a single atomic load
// and a branch — no allocation, no clock read — so library code is
// instrumented unconditionally. Tests override the global registry with
// SetDefault and restore the previous one when done.
package obs

import (
	"context"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds named instruments and the enabled flag they all consult.
// The zero value is not usable; construct with NewRegistry. All methods are
// safe for concurrent use, and every method is nil-receiver-safe so that
// instrument lookups against an absent registry degrade to no-ops.
type Registry struct {
	enabled atomic.Bool

	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	hists      map[string]*Histogram
	timers     map[string]*Timer
	collectors []func(*Registry)

	tracer atomic.Pointer[Tracer]

	// runtimeCollector guards RegisterRuntimeCollector against double
	// registration.
	runtimeCollector atomic.Bool
}

// NewRegistry returns an empty, enabled registry.
func NewRegistry() *Registry {
	r := &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		timers:   make(map[string]*Timer),
	}
	r.enabled.Store(true)
	return r
}

// defaultRegistry is the process-global registry. It starts disabled so that
// library code pays only an atomic load per instrument operation until an
// edge opts in.
var defaultRegistry atomic.Pointer[Registry]

func init() {
	r := NewRegistry()
	r.SetEnabled(false)
	defaultRegistry.Store(r)
}

// Default returns the process-global registry.
func Default() *Registry { return defaultRegistry.Load() }

// SetDefault replaces the process-global registry and returns the previous
// one, so tests can install their own and restore on exit:
//
//	prev := obs.SetDefault(obs.NewRegistry())
//	defer obs.SetDefault(prev)
func SetDefault(r *Registry) (prev *Registry) {
	if r == nil {
		r = NewRegistry()
	}
	return defaultRegistry.Swap(r)
}

// Enable turns the process-global registry on and returns it.
func Enable() *Registry {
	r := Default()
	r.SetEnabled(true)
	return r
}

// SetEnabled flips recording on or off. Disabling does not clear recorded
// values.
func (r *Registry) SetEnabled(on bool) {
	if r == nil {
		return
	}
	r.enabled.Store(on)
}

// Enabled reports whether instruments record.
func (r *Registry) Enabled() bool { return r != nil && r.enabled.Load() }

// SetTracer installs the request tracer whose traces ctx-aware spans record
// into and /tracez serves from. A nil tracer uninstalls.
func (r *Registry) SetTracer(tc *Tracer) {
	if r == nil {
		return
	}
	if tc == nil {
		r.tracer.Store(nil)
		return
	}
	r.tracer.Store(tc)
}

// Tracer returns the installed request tracer (nil when tracing is not
// configured).
func (r *Registry) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	return r.tracer.Load()
}

// AddCollector registers a callback run at the start of every Snapshot —
// the mechanism bridges use to mirror externally accumulated counters (for
// example diskio.Stats) into the registry at observation time.
func (r *Registry) AddCollector(fn func(*Registry)) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{reg: r}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{reg: r}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = newHistogram(r)
		r.hists[name] = h
	}
	return h
}

// Timer returns the named timer, creating it on first use.
func (r *Registry) Timer(name string) *Timer {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	t := r.timers[name]
	r.mu.RUnlock()
	if t != nil {
		return t
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t = r.timers[name]; t == nil {
		t = &Timer{name: name, reg: r, hist: newHistogram(r)}
		r.timers[name] = t
	}
	return t
}

// Reset zeroes every instrument without dropping registrations, so handles
// held by callers stay live.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.v.Store(0)
	}
	for _, h := range r.hists {
		h.reset()
	}
	for _, t := range r.timers {
		t.hist.reset()
	}
}

// Counter is a monotonically increasing value.
type Counter struct {
	reg *Registry
	v   atomic.Int64
}

// Add increments the counter by n when the registry records.
func (c *Counter) Add(n int64) {
	if c == nil || !c.reg.enabled.Load() {
		return
	}
	c.v.Add(n)
}

// Inc is Add(1).
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current value.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down.
type Gauge struct {
	reg *Registry
	v   atomic.Int64
}

// Set records v when the registry records.
func (g *Gauge) Set(v int64) {
	if g == nil || !g.reg.enabled.Load() {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by n when the registry records.
func (g *Gauge) Add(n int64) {
	if g == nil || !g.reg.enabled.Load() {
		return
	}
	g.v.Add(n)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// numBuckets covers the full non-negative int64 range with power-of-two
// buckets: bucket 0 holds values <= 0 and bucket i (i >= 1) holds values in
// [2^(i-1), 2^i - 1].
const numBuckets = 64

// Histogram is a bounded distribution over power-of-two buckets, with exact
// count, sum, min and max. Observing is lock- and allocation-free.
type Histogram struct {
	reg     *Registry
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // valid only when count > 0
	max     atomic.Int64
	buckets [numBuckets]atomic.Int64
}

func newHistogram(r *Registry) *Histogram {
	h := &Histogram{reg: r}
	h.min.Store(int64(^uint64(0) >> 1)) // MaxInt64
	return h
}

// BucketIndex returns the bucket an observation lands in: 0 for v <= 0,
// otherwise 1 + floor(log2(v)).
func BucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// BucketUpperBound returns the largest value bucket i holds (0 for bucket 0,
// 2^i - 1 otherwise).
func BucketUpperBound(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 63 {
		return int64(^uint64(0) >> 1)
	}
	return int64(1)<<uint(i) - 1
}

// Observe records one value when the registry records.
func (h *Histogram) Observe(v int64) {
	if h == nil || !h.reg.enabled.Load() {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[BucketIndex(v)].Add(1)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

func (h *Histogram) reset() {
	h.count.Store(0)
	h.sum.Store(0)
	h.min.Store(int64(^uint64(0) >> 1))
	h.max.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// Timer aggregates span durations into a nanosecond histogram.
type Timer struct {
	name string
	reg  *Registry
	hist *Histogram
}

// Name returns the timer's registered name.
func (t *Timer) Name() string {
	if t == nil {
		return ""
	}
	return t.name
}

// Count returns the number of completed spans.
func (t *Timer) Count() int64 {
	if t == nil {
		return 0
	}
	return t.hist.Count()
}

// Total returns the accumulated span time.
func (t *Timer) Total() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.hist.Sum())
}

// Record adds an already-measured duration to the timer, for call sites that
// must keep their own clock reading (for example phase times that also feed
// the paper's figures) regardless of whether the registry records.
func (t *Timer) Record(d time.Duration) {
	if t == nil {
		return
	}
	t.hist.Observe(int64(d))
}

// Start opens a span against the timer. When the registry is disabled the
// returned zero span skips the clock read entirely; End on it is a no-op.
func (t *Timer) Start() Span {
	if t == nil || !t.reg.enabled.Load() {
		return Span{}
	}
	return Span{t: t, start: time.Now()}
}

// StartSpan opens a span against the timer attached to the given span
// context: its duration lands in the timer's histogram as usual, and — when
// sc belongs to a sampled trace — in the trace's event ring as a child of
// sc's span. An untraced sc behaves exactly like Start.
func (t *Timer) StartSpan(sc SpanContext) Span {
	s := t.Start()
	if s.t != nil && sc.tr != nil {
		s.tr = sc.tr
		s.parentID = sc.spanID
		s.spanID = sc.tr.newSpanID()
	}
	return s
}

// StartCtx is StartSpan against the span context carried by ctx — the usual
// entry point for code that already threads a context.
func (t *Timer) StartCtx(ctx context.Context) Span {
	return t.StartSpan(SpanContextFrom(ctx))
}

// Span is one in-flight timed phase. It is a value type: starting and ending
// a span never allocates unless it joined a request trace.
type Span struct {
	t     *Timer
	start time.Time

	// Trace attachment, set by StartSpan/StartCtx; nil outside traces.
	tr       *Trace
	spanID   uint64
	parentID uint64
}

// SpanContext returns the span's position in its request trace, for
// parenting further work under this span (the zero SpanContext when the span
// is untraced).
func (s Span) SpanContext() SpanContext {
	if s.tr == nil {
		return SpanContext{}
	}
	return SpanContext{tr: s.tr, spanID: s.spanID}
}

// Ctx returns ctx carrying this span's context, so callees parent under it.
func (s Span) Ctx(ctx context.Context) context.Context {
	return s.SpanContext().Context(ctx)
}

// End closes the span and records its duration in the timer and, when the
// span joined a request trace, in the trace. It returns the measured duration
// (0 for a disabled span).
func (s Span) End() time.Duration {
	if s.t == nil {
		return 0
	}
	d := time.Since(s.start)
	s.t.hist.Observe(int64(d))
	s.tr.record(s.t.name, s.spanID, s.parentID, s.start, d)
	return d
}

// EndObserving closes the span like End and additionally adds n to the given
// counter — the common "this phase processed n units" idiom.
func (s Span) EndObserving(c *Counter, n int64) time.Duration {
	c.Add(n)
	return s.End()
}

// Label normalizes a display name into the metric-name alphabet: letters and
// digits are lowercased, '+' becomes "plus", and every other byte is dropped,
// so "PT-Scan" → "ptscan" and "ECUT+" → "ecutplus".
func Label(s string) string {
	out := make([]byte, 0, len(s)+4)
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c >= 'a' && c <= 'z' || c >= '0' && c <= '9':
			out = append(out, c)
		case c >= 'A' && c <= 'Z':
			out = append(out, c+'a'-'A')
		case c == '+':
			out = append(out, "plus"...)
		}
	}
	return string(out)
}
