// Package gemm implements GEMM, the GEneric Model Maintainer of Section 3.2
// of the DEMON paper: given any incremental model-maintenance algorithm A_M
// for the unrestricted window option, GEMM derives maintenance for the most
// recent window option under both window-independent and window-relative
// block selection sequences by simultaneously evolving one model per future
// window overlapping the current one (Algorithm 3.1).
package gemm

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"time"

	"github.com/demon-mining/demon/internal/blockseq"
	"github.com/demon-mining/demon/internal/obs"
)

// Maintainer is the abstraction of the paper's A_M: it can create an empty
// model and update a model with one block. Models must be independent — GEMM
// holds w of them and updates each separately. M may be a pointer type whose
// Add mutates in place and returns the same pointer.
type Maintainer[B, M any] interface {
	// Empty returns a model over no data. spare is the zero M, or a model
	// that expired from the window and that nothing else uses any more: a
	// maintainer may empty it and return it, keeping its memory, or ignore
	// it.
	Empty(spare M) M
	// Add returns the model updated with the block.
	Add(m M, blk B) (M, error)
}

// Kind selects the BSS flavour a GEMM instance follows.
type Kind int

const (
	// WindowIndependent follows a window-independent BSS: bits are attached
	// to absolute block identifiers and the per-model sequences are
	// k-projections (Section 3.2.1).
	WindowIndependent Kind = iota
	// WindowRelative follows a window-relative BSS: bits are attached to
	// window positions, move with the window, and the per-model sequences
	// are k-right-shifts (Section 3.2.2).
	WindowRelative
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case WindowIndependent:
		return "window-independent"
	case WindowRelative:
		return "window-relative"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// GEMM maintains the collection of w models for the most recent window of
// size w. Slot 0 holds the model of the current window; slot j holds the
// model extracted from the overlap between the current window and the future
// window starting j blocks later.
//
// During warm-up (fewer than w blocks seen) the window degenerates to
// D[1, t]; for window-relative sequences the bits are right-aligned with the
// window end, i.e. block t always sits at position w.
type GEMM[B, M any] struct {
	am     Maintainer[B, M]
	w      int
	kind   Kind
	bss    blockseq.BSS          // window-independent
	rel    blockseq.WindowRelBSS // window-relative
	models []M                   // length w; slot 0 = current
	// spare is the model that expired at the last successful step, the zero
	// M when it was no pointer or a kept slot aliases it. The next step hands
	// it to Empty for the fresh slot.
	spare  M
	t      blockseq.ID
	broken error
	// workers is the slot-maintenance worker knob; see SetWorkers.
	workers int
	// response is the last step's response time; see Response.
	response time.Duration
}

// New creates a GEMM from the two ways the miners configure a window: a
// window-relative BSS, whose length fixes the window size (w must then be
// zero or agree), or else a window size with a window-independent BSS (nil
// selects every block).
func New[B, M any](am Maintainer[B, M], w int, bss blockseq.BSS, rel blockseq.WindowRelBSS) (*GEMM[B, M], error) {
	if rel.Len() > 0 {
		if w != 0 && w != rel.Len() {
			return nil, fmt.Errorf("gemm: window size %d conflicts with window-relative BSS of length %d", w, rel.Len())
		}
		return NewWindowRelative(am, rel)
	}
	if bss == nil {
		bss = blockseq.All{}
	}
	return NewWindowIndependent(am, w, bss)
}

// NewWindowIndependent creates a GEMM following a window-independent BSS.
func NewWindowIndependent[B, M any](am Maintainer[B, M], w int, bss blockseq.BSS) (*GEMM[B, M], error) {
	if w < 1 {
		return nil, fmt.Errorf("gemm: window size %d < 1", w)
	}
	if bss == nil {
		return nil, fmt.Errorf("gemm: nil BSS")
	}
	g := &GEMM[B, M]{am: am, w: w, kind: WindowIndependent, bss: bss}
	g.fill()
	return g, nil
}

// fill starts every slot with an empty model.
func (g *GEMM[B, M]) fill() {
	var none M
	g.models = make([]M, g.w)
	for i := range g.models {
		g.models[i] = g.am.Empty(none)
	}
}

// NewWindowRelative creates a GEMM following a window-relative BSS of length
// w.
func NewWindowRelative[B, M any](am Maintainer[B, M], rel blockseq.WindowRelBSS) (*GEMM[B, M], error) {
	w := rel.Len()
	if w < 1 {
		return nil, fmt.Errorf("gemm: window-relative BSS is empty")
	}
	g := &GEMM[B, M]{am: am, w: w, kind: WindowRelative, rel: rel}
	g.fill()
	return g, nil
}

// SetWorkers sets the worker count AddBlock fans slot maintenance across:
// non-positive selects GOMAXPROCS, 1 keeps slot updates serial. Models in
// different slots are independent, so the resulting collection is identical
// for every worker count; A_M.Add must be safe for concurrent calls on
// distinct models. SetWorkers must not be called concurrently with AddBlock.
func (g *GEMM[B, M]) SetWorkers(n int) { g.workers = n }

// Kind returns the BSS flavour.
func (g *GEMM[B, M]) Kind() Kind { return g.kind }

// WindowSize returns w.
func (g *GEMM[B, M]) WindowSize() int { return g.w }

// T returns the identifier of the latest block seen.
func (g *GEMM[B, M]) T() blockseq.ID { return g.t }

// Window returns the current most recent window.
func (g *GEMM[B, M]) Window() blockseq.Window {
	return blockseq.Snapshot{T: g.t}.MostRecent(g.w)
}

// Current returns the model of the current window with respect to the BSS —
// the m(D[t-w+1, t], b) the analyst asked for. The model is GEMM's: it
// expires at the next step and may be emptied for reuse at the one after.
func (g *GEMM[B, M]) Current() M { return g.models[0] }

// Response returns the response time of the last successful AddBlock: from
// the start of the step until the model that became current was up to date —
// the one A_M invocation Section 3.2.3 calls time-critical, or just the shift
// when the BSS does not select the block for that model. The rest of the step
// maintained the w-1 future-window models off-line.
func (g *GEMM[B, M]) Response() time.Duration { return g.response }

// bitFor returns whether the new block id is selected for the model in slot
// j after the shift (i.e. for the window starting j blocks after the new
// current window's start).
func (g *GEMM[B, M]) bitFor(slot int, id blockseq.ID) bool {
	switch g.kind {
	case WindowIndependent:
		// The k-projection never zeroes the newest position, so the bit is
		// the block's own bit for every slot.
		return g.bss.Bit(id)
	case WindowRelative:
		// After the shift, slot j's window ends (w-1-j) blocks after id, so
		// id sits at position w-j.
		return g.rel.BitAt(g.w - slot)
	default:
		panic("gemm: unknown kind")
	}
}

// AddBlock performs the GAMMA-Update step of Algorithm 3.1: the expiring
// current model is dropped, every remaining model shifts one slot and is
// updated with the new block when its (projected or right-shifted) sequence
// selects it, and a fresh model for the newest future window is started —
// in the memory of the model that expired at the previous step, when A_M
// takes it.
//
// Slot updates fan across the workers configured with SetWorkers; slots
// aliasing one model update it exactly once.
//
// id must be exactly T()+1. If any A_M update fails, the GEMM instance
// refuses further use until RestoreState. The collection stays the one
// before the step, Current included, but A_M may have changed the slots it
// updates in place.
func (g *GEMM[B, M]) AddBlock(blk B, id blockseq.ID) error {
	return g.AddBlockCtx(context.Background(), blk, id)
}

// AddBlockCtx is AddBlock carrying a request context: when ctx belongs to a
// sampled trace, the slot-maintenance span (gemm.slide.ns) records into it.
func (g *GEMM[B, M]) AddBlockCtx(ctx context.Context, blk B, id blockseq.ID) error {
	if g.broken != nil {
		return fmt.Errorf("gemm: maintainer is broken by a previous error: %w", g.broken)
	}
	if id != g.t+1 {
		return fmt.Errorf("gemm: block %d out of order, expected %d", id, g.t+1)
	}

	// Shift: slot j+1 becomes slot j; a fresh model enters the last slot.
	start := time.Now()
	reg := obs.Default()
	span := reg.Timer("gemm.slide.ns").StartCtx(ctx)
	next := make([]M, g.w)
	copy(next, g.models[1:])
	// The spare stays set if the step fails: g is broken until RestoreState,
	// which drops it.
	next[g.w-1] = g.am.Empty(g.spare)

	// Collect the selected slots, grouped by model identity: slots aliasing
	// one model (possible after RestoreState) update it once. Groups are
	// independent, so they fan across the configured workers; on failure the
	// error of the lowest-index slot is reported, deterministically.
	selected := make([]int, 0, g.w)
	for j := 0; j < g.w; j++ {
		if g.bitFor(j, id) {
			selected = append(selected, j)
		}
	}
	groups := make([][]int, 0, len(selected))
	byPtr := make(map[uintptr]int)
	for _, j := range selected {
		if p, ok := modelPointer(next[j]); ok {
			if gi, dup := byPtr[p]; dup {
				groups[gi] = append(groups[gi], j)
				continue
			}
			byPtr[p] = len(groups)
		}
		groups = append(groups, []int{j})
	}
	results := make([]M, len(groups))
	errs := make([]error, len(groups))
	// Slot 0, when selected, leads group 0, which fan runs first and on
	// this goroutine at every worker count: its update is timed where it
	// runs. An unselected slot 0 is current as shifted.
	response := time.Since(start)
	fan(len(groups), g.workers, func(lo, hi int) {
		for gi := lo; gi < hi; gi++ {
			results[gi], errs[gi] = g.am.Add(next[groups[gi][0]], blk)
			if gi == 0 && groups[0][0] == 0 {
				response = time.Since(start)
			}
		}
	})
	for gi, err := range errs {
		if err != nil {
			g.broken = err
			span.End()
			return fmt.Errorf("gemm: updating slot %d with block %d: %w", groups[gi][0], id, err)
		}
	}
	for gi, slots := range groups {
		for _, j := range slots {
			next[j] = results[gi]
		}
	}
	updated := len(selected)
	var spare M
	if p, ok := modelPointer(g.models[0]); ok && !slices.ContainsFunc(next, func(m M) bool {
		q, _ := modelPointer(m)
		return q == p
	}) {
		spare = g.models[0]
	}
	g.models, g.spare = next, spare
	g.t = id
	g.response = response
	span.EndObserving(reg.Counter("gemm.slot_updates"), int64(updated))
	if reg.Enabled() {
		reg.Gauge("gemm.window").Set(int64(g.w))
		reg.Gauge("gemm.t").Set(int64(g.t))
	}
	return nil
}

// Slots returns the maintained models; index 0 is the current window's
// model and index j the model of the future window starting j blocks later.
// The slice is a copy; the models themselves are shared, as Current's is.
func (g *GEMM[B, M]) Slots() []M {
	out := make([]M, len(g.models))
	copy(out, g.models)
	return out
}

// RestoreState replaces the collection of models and the latest block
// identifier — the counterpart of Slots for resuming from a checkpoint. The
// number of models must equal the window size, and a maintainer broken by a
// previous error is repaired by restoring.
func (g *GEMM[B, M]) RestoreState(models []M, t blockseq.ID) error {
	if len(models) != g.w {
		return fmt.Errorf("gemm: restoring %d models into window of size %d", len(models), g.w)
	}
	if t < 0 {
		return fmt.Errorf("gemm: negative block id %d", t)
	}
	g.models = make([]M, g.w)
	copy(g.models, models)
	var none M
	g.t, g.spare = t, none // the caller may hold on to the old spare
	g.broken = nil
	return nil
}

// fan splits [0, n) into contiguous ranges, one per worker — non-positive
// workers selects GOMAXPROCS — and runs fn on each concurrently. The range
// holding index 0 runs on the calling goroutine, the others each on their
// own; with one range no goroutine starts. fan returns when every range is
// done.
func fan(n, workers int, fn func(lo, hi int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	if workers <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for s := 1; s < workers; s++ {
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(s*n/workers, (s+1)*n/workers)
	}
	fn(0, n/workers)
	wg.Wait()
}

// modelPointer returns a pointer identity for reference-kind models, used to
// detect slots aliasing one model. Value-kind models (structs, slices, …)
// report no identity and are treated as distinct slots.
func modelPointer[M any](m M) (uintptr, bool) {
	v := reflect.ValueOf(m)
	switch v.Kind() {
	case reflect.Pointer, reflect.Map, reflect.Chan, reflect.Func, reflect.UnsafePointer:
		p := v.Pointer()
		return p, p != 0
	}
	return 0, false
}

// DistinctModels returns how many of the w maintained models are necessarily
// distinct given the BSS — the paper notes that slots whose sequences
// coincide hold identical models (e.g. the second and third models in the
// Section 3.2.1 example). It is a reporting aid; GEMM stores all w slots.
func (g *GEMM[B, M]) DistinctModels() int {
	seqs := make([]string, g.w)
	base := g.t - blockseq.ID(g.w) + 1
	for k := 0; k < g.w; k++ {
		switch g.kind {
		case WindowIndependent:
			if base < 1 {
				// During warm-up projections are not yet meaningful; report
				// conservatively.
				return g.w
			}
			seqs[k] = blockseq.Project(g.bss, base, g.w, k).String()
		case WindowRelative:
			seqs[k] = g.rel.RightShift(k).String()
		}
	}
	distinct := make(map[string]bool, g.w)
	for _, s := range seqs {
		distinct[s] = true
	}
	return len(distinct)
}
