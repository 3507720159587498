package main

import (
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	demon "github.com/demon-mining/demon"
	"github.com/demon-mining/demon/internal/diskio"
)

// span is one timed interval of the traced pass. Spans come only from this
// package: around the calls into each layer, from the durations the miners'
// reports return, and from the timing Store decorator.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 for a root span
	Name   string        `json:"name"`   // "<module>.<what>"
	Block  int           `json:"block"`  // 1-based block id, 0 outside a block
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps the spans of a traced pass in memory; they are written out
// only at exit (-trace-out). A nil recorder records nothing, so the untraced
// pass runs the same code without the bookkeeping.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// at converts a wall-clock instant into the recorder's time base.
func (r *recorder) at(t time.Time) time.Duration { return t.Sub(r.epoch) }

// add records one span and returns its id (0 on a nil recorder).
func (r *recorder) add(parent int, name string, block int, start, end time.Duration) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Block: block, Start: start, End: end})
	return id
}

type interval struct{ lo, hi time.Duration }

// cover returns the length of the union of the intervals: overlapping
// children (parallel workers, concurrent store operations) count once.
func cover(ivs []interval) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end time.Duration
	end = math.MinInt64
	for _, iv := range ivs {
		if iv.hi <= iv.lo {
			continue
		}
		if iv.lo > end {
			total += iv.hi - iv.lo
			end = iv.hi
		} else if iv.hi > end {
			total += iv.hi - end
			end = iv.hi
		}
	}
	return total
}

// selfTimes returns, per span name, the summed self time: a span's duration
// minus the part of its interval that its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]interval)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range spans {
		kids := children[s.ID]
		for i := range kids {
			kids[i].lo = max(kids[i].lo, s.Start)
			kids[i].hi = min(kids[i].hi, s.End)
		}
		self[s.Name] += s.dur() - cover(kids)
	}
	return self
}

// layerOf maps a span name to the module it is attributed to.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// median returns the middle of the samples (mean of the two middle ones for
// an even count); ok is false for no samples.
func median(xs []float64) (v float64, ok bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2, true
	}
	return s[len(s)/2], true
}

// best returns the smallest of the samples. It is the estimator for a step
// that a run repeats identically many times, such as a restart cycle: on a
// shared host, interference only ever adds time, so the fastest repetition is
// the one closest to what the code costs (its median moves by 12 to 29 %
// between runs of the same code here, its minimum by 2 to 9 %).
func best(xs []float64) (v float64, ok bool) {
	if len(xs) == 0 {
		return 0, false
	}
	return slices.Min(xs), true
}

// minTailSamples is the fewest samples a tail is reported from: the
// 11th-largest of 21 is the median, below that there is no percentile with
// ten samples beyond it.
const minTailSamples = 21

// tail returns the highest percentile, capped at p95, that still has ten
// samples beyond it: the 11th-largest sample up to 200 samples, p95 from
// there. With fewer than 21 samples there is no such percentile and ok is
// false; a maximum is never reported.
func tail(xs []float64) (v float64, ok bool) {
	n := len(xs)
	if n < minTailSamples {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[n-1-tailBeyond(n)], true
}

// tailBeyond is how many of n samples lie beyond the one tail reports.
func tailBeyond(n int) int { return max(10, (n+19)/20) }

// opKind names a Store operation the decorator times.
type opKind uint8

const (
	opPut opKind = iota
	opGet
	opDelete
	opOther // Size, Keys: timed as cover, not counted as I/O
	numOpKinds
)

// storeOp is one timed call through the decorator.
type storeOp struct {
	kind    opKind
	failed  bool // the call returned an error (a Get of an absent key, mostly)
	staging bool // key under the TxnStore staging prefix
	bytes   int
	lo, hi  time.Duration
}

// timedStore is the timing demon.Store decorator of the traced pass. It is
// handed to the miner configuration, so it sits below the miner's own
// TxnStore and sees every backend operation, staging traffic included.
type timedStore struct {
	inner demon.Store
	rec   *recorder

	mu  sync.Mutex
	ops []storeOp
}

func newTimedStore(inner demon.Store, rec *recorder) *timedStore {
	return &timedStore{inner: inner, rec: rec}
}

func (s *timedStore) log(kind opKind, key string, n int, t0 time.Time, err error) {
	t1 := time.Now()
	op := storeOp{kind: kind, failed: err != nil, staging: strings.HasPrefix(key, diskio.StagingPrefix),
		bytes: n, lo: s.rec.at(t0), hi: s.rec.at(t1)}
	s.mu.Lock()
	s.ops = append(s.ops, op)
	s.mu.Unlock()
}

// take returns the operations logged since the last call and resets the log,
// keeping memory bounded to one block's worth.
func (s *timedStore) take() []storeOp {
	s.mu.Lock()
	defer s.mu.Unlock()
	ops := s.ops
	s.ops = nil
	return ops
}

// Unwrap lets demon.CloseStore reach the backend's closer.
func (s *timedStore) Unwrap() demon.Store { return s.inner }

func (s *timedStore) Put(key string, data []byte) error {
	t0 := time.Now()
	err := s.inner.Put(key, data)
	s.log(opPut, key, len(data), t0, err)
	return err
}

func (s *timedStore) Get(key string) ([]byte, error) {
	t0 := time.Now()
	data, err := s.inner.Get(key)
	s.log(opGet, key, len(data), t0, err)
	return data, err
}

func (s *timedStore) Delete(key string) error {
	t0 := time.Now()
	err := s.inner.Delete(key)
	s.log(opDelete, key, 0, t0, err)
	return err
}

func (s *timedStore) Size(key string) (int64, error) {
	t0 := time.Now()
	n, err := s.inner.Size(key)
	s.log(opOther, key, 0, t0, err)
	return n, err
}

func (s *timedStore) Keys(prefix string) ([]string, error) {
	t0 := time.Now()
	keys, err := s.inner.Keys(prefix)
	s.log(opOther, prefix, 0, t0, err)
	return keys, err
}

func (s *timedStore) Stats() demon.StoreStats { return s.inner.Stats() }
func (s *timedStore) ResetStats()             { s.inner.ResetStats() }

// diskTotals accumulates what the decorator saw over the timed blocks. Like
// Store.Stats it counts the calls that succeeded; the time of one that
// failed still counts as busy.
type diskTotals struct {
	count        [numOpKinds]int64
	busy         [numOpKinds]time.Duration
	bytesWritten int64 // all Put bytes, staging copies included
	bytesFinal   int64 // Put bytes to keys outside staging/
	bytesRead    int64
}

func (d *diskTotals) add(ops []storeOp) {
	for _, op := range ops {
		d.busy[op.kind] += op.hi - op.lo
		if op.failed {
			continue
		}
		d.count[op.kind]++
		switch op.kind {
		case opPut:
			d.bytesWritten += int64(op.bytes)
			if !op.staging {
				d.bytesFinal += int64(op.bytes)
			}
		case opGet:
			d.bytesRead += int64(op.bytes)
		}
	}
}

// phase is one sequential stage of a block whose duration the layer itself
// reported; the tracer lays phases out back to back from the block's start.
type phase struct {
	name string
	dur  time.Duration
}

// blockReport is what a layer's own report says about one block: its phases
// in execution order, and counts to total over the timed blocks.
type blockReport struct {
	phases []phase
	counts map[string]float64
}

// itemsetReport reads a MaintenanceReport; ingest names the layer the ingest
// phase belongs to, which depends on the counting strategy.
func itemsetReport(rep *demon.MaintenanceReport, ingest string) blockReport {
	return blockReport{
		phases: []phase{{ingest, rep.Ingest}, {"borders.detect", rep.Detection}, {"borders.update", rep.Update}},
		counts: map[string]float64{
			"borders.candidates": float64(rep.CandidatesCounted),
			"borders.promoted":   float64(rep.Promoted),
			"borders.demoted":    float64(rep.Demoted),
		},
	}
}

// tracer is the state of one traced pass: the span recorder, the current
// round's decorated store, and the counters read at the layer boundaries.
// Every method is safe on a nil tracer, which is what the untraced pass
// uses.
type tracer struct {
	rec    *recorder
	store  *timedStore
	disk   diskTotals
	blocks int                // timed blocks recorded
	sums   map[string]float64 // per-metric totals over the timed blocks
}

func newTracer() *tracer {
	return &tracer{rec: newRecorder(), sums: make(map[string]float64)}
}

// wrap decorates a round's store when tracing, and returns it untouched
// otherwise.
func (t *tracer) wrap(s demon.Store) demon.Store {
	if t == nil {
		return s
	}
	t.store = newTimedStore(s, t.rec)
	return t.store
}

// untilFirstOp returns how long after t0 the first store operation logged
// since the last block ended.
func (t *tracer) untilFirstOp(t0 time.Time) time.Duration {
	if t == nil || t.store == nil {
		return 0
	}
	t.store.mu.Lock()
	defer t.store.mu.Unlock()
	if len(t.store.ops) == 0 {
		return 0
	}
	return t.store.ops[0].hi - t.rec.at(t0)
}

// sum adds to a per-metric total of the timed blocks.
func (t *tracer) sum(name string, v float64) {
	if t != nil {
		t.sums[name] += v
	}
}

// span records an interval measured around a call.
func (t *tracer) span(parent int, name string, block int, t0, t1 time.Time) int {
	if t == nil {
		return 0
	}
	return t.rec.add(parent, name, block, t.rec.at(t0), t.rec.at(t1))
}

// block records one block of a miner driven directly: the block span, the
// phases its report returned laid out in execution order, the remainder as
// demon.commit_residual, and under each phase the cover of the store
// operations that started inside it. Warm-up blocks only drain the
// decorator's log.
func (t *tracer) block(id int, timed bool, t0 time.Time, d time.Duration, rep blockReport) {
	if t == nil {
		return
	}
	var ops []storeOp
	if t.store != nil {
		ops = t.store.take()
	}
	if !timed {
		return
	}
	t.blocks++
	t.disk.add(ops)
	t.sum("bench.block", ms(d))
	for name, v := range rep.counts {
		t.sum(name, v)
	}
	start := t.rec.at(t0)
	end := start + d
	root := t.rec.add(0, "bench.block", id, start, end)
	phases := append(rep.phases, phase{"demon.commit_residual", end - start}) // clipped to what is left
	cur := start
	for i, p := range phases {
		lo, hi := cur, min(cur+p.dur, end)
		last := i == len(phases)-1
		if last {
			hi = end
		}
		pid := t.rec.add(root, p.name, id, lo, hi)
		t.sum(p.name, ms(hi-lo))
		var ivs []interval
		for _, op := range ops {
			if op.lo >= lo && (op.lo < hi || last) {
				ivs = append(ivs, interval{op.lo, min(op.hi, hi)})
			}
		}
		if c := cover(ivs); c > 0 {
			t.rec.add(pid, "diskio.ops", id, lo, lo+c)
		}
		cur = hi
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// overheadPct estimates what tracing itself cost the timed blocks: the
// decorator's own time per operation, calibrated against a store call that
// does next to nothing, times the operations it timed, as a share of the
// timed block time. (The two-pass command also prints the traced pass's
// records/s beside the untraced one's.)
func (t *tracer) overheadPct(blockTotal time.Duration) float64 {
	const n = 20000
	mem := diskio.NewMemStore()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		_ = mem.Delete("k") // deleting an absent key cannot fail
	}
	direct := time.Since(t0)
	wrapped := newTimedStore(mem, t.rec)
	t0 = time.Now()
	for i := 0; i < n; i++ {
		_ = wrapped.Delete("k")
	}
	perOp := (time.Since(t0) - direct) / n
	var ops int64
	for _, c := range t.disk.count {
		ops += c
	}
	return 100 * float64(perOp) * float64(ops) / float64(blockTotal)
}
