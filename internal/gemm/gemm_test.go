package gemm

import (
	"errors"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"github.com/demon-mining/demon/internal/blockseq"
)

// bagMaintainer is a toy A_M whose model is the multiset of block IDs it was
// built from — ideal for checking exactly which blocks GEMM feeds each slot.
type bagMaintainer struct {
	failOn blockseq.ID // Add fails when this block arrives (0 = never)
}

func (m bagMaintainer) Empty([]blockseq.ID) []blockseq.ID { return nil }

func (m bagMaintainer) Add(bag []blockseq.ID, blk blockseq.ID) ([]blockseq.ID, error) {
	if m.failOn != 0 && blk == m.failOn {
		return nil, errors.New("injected failure")
	}
	return append(bag, blk), nil
}

// TestWindowIndependentPaperExample replays the Section 3.2.1 worked
// example: BSS ⟨10110⟩, w = 3.
func TestWindowIndependentPaperExample(t *testing.T) {
	bss := blockseq.Explicit{Bits: []bool{true, false, true, true, false}}
	g, err := NewWindowIndependent[blockseq.ID, []blockseq.ID](bagMaintainer{}, 3, bss)
	if err != nil {
		t.Fatal(err)
	}
	for id := blockseq.ID(1); id <= 3; id++ {
		if err := g.AddBlock(id, id); err != nil {
			t.Fatal(err)
		}
	}
	// Paper: collection on D[1,3] is m(101)={D1,D3}, m(001)={D3}, m(001)={D3}.
	if got := g.Current(); !reflect.DeepEqual(got, []blockseq.ID{1, 3}) {
		t.Fatalf("current on D[1,3] = %v, want [1 3]", got)
	}
	if !reflect.DeepEqual(g.models[1], []blockseq.ID{3}) || !reflect.DeepEqual(g.models[2], []blockseq.ID{3}) {
		t.Fatalf("future models = %v, %v; want [3], [3]", g.models[1], g.models[2])
	}
	// Paper notes the second and third models are identical.
	if got := g.DistinctModels(); got != 2 {
		t.Fatalf("DistinctModels = %d, want 2", got)
	}
	// After D4: m(D[2,4], 011) = {D3, D4}.
	if err := g.AddBlock(4, 4); err != nil {
		t.Fatal(err)
	}
	if got := g.Current(); !reflect.DeepEqual(got, []blockseq.ID{3, 4}) {
		t.Fatalf("current on D[2,4] = %v, want [3 4]", got)
	}
	if g.Window() != (blockseq.Window{Lo: 2, Hi: 4}) {
		t.Fatalf("Window = %v", g.Window())
	}
}

// TestWindowRelativePaperExample replays the Section 3.2.2 worked example:
// window-relative BSS ⟨101⟩, w = 3: the model on D[1,3] comes from blocks 1
// and 3; after D4 the model on D[2,4] comes from blocks 2 and 4.
func TestWindowRelativePaperExample(t *testing.T) {
	rel := blockseq.NewWindowRel(true, false, true)
	g, err := NewWindowRelative[blockseq.ID, []blockseq.ID](bagMaintainer{}, rel)
	if err != nil {
		t.Fatal(err)
	}
	for id := blockseq.ID(1); id <= 3; id++ {
		if err := g.AddBlock(id, id); err != nil {
			t.Fatal(err)
		}
	}
	if got := g.Current(); !reflect.DeepEqual(got, []blockseq.ID{1, 3}) {
		t.Fatalf("current on D[1,3] = %v, want [1 3]", got)
	}
	if err := g.AddBlock(4, 4); err != nil {
		t.Fatal(err)
	}
	if got := g.Current(); !reflect.DeepEqual(got, []blockseq.ID{2, 4}) {
		t.Fatalf("current on D[2,4] = %v, want [2 4]", got)
	}
}

// naiveWindowIndependent recomputes the expected current model from scratch:
// the blocks in the window selected by their absolute bits.
func naiveWindowIndependent(bss blockseq.BSS, t blockseq.ID, w int) []blockseq.ID {
	win := blockseq.Snapshot{T: t}.MostRecent(w)
	return blockseq.Selected(bss, win)
}

// naiveWindowRelative recomputes the expected current model: position w is
// right-aligned with block t.
func naiveWindowRelative(rel blockseq.WindowRelBSS, t blockseq.ID, w int) []blockseq.ID {
	var out []blockseq.ID
	for id := blockseq.ID(1); id <= t; id++ {
		pos := int(id) + w - int(t)
		if pos >= 1 && rel.BitAt(pos) {
			out = append(out, id)
		}
	}
	return out
}

func TestWindowIndependentMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 50; trial++ {
		w := 1 + rng.Intn(6)
		n := 1 + rng.Intn(15)
		bits := make([]bool, n)
		for i := range bits {
			bits[i] = rng.Intn(2) == 1
		}
		bss := blockseq.Explicit{Bits: bits}
		g, err := NewWindowIndependent[blockseq.ID, []blockseq.ID](bagMaintainer{}, w, bss)
		if err != nil {
			t.Fatal(err)
		}
		for id := blockseq.ID(1); id <= blockseq.ID(n); id++ {
			if err := g.AddBlock(id, id); err != nil {
				t.Fatal(err)
			}
			want := naiveWindowIndependent(bss, id, w)
			got := g.Current()
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d t=%d w=%d bits=%v: current = %v, want %v",
					trial, id, w, bits, got, want)
			}
		}
	}
}

func TestWindowRelativeMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 50; trial++ {
		w := 1 + rng.Intn(6)
		bits := make([]bool, w)
		for i := range bits {
			bits[i] = rng.Intn(2) == 1
		}
		rel := blockseq.NewWindowRel(bits...)
		g, err := NewWindowRelative[blockseq.ID, []blockseq.ID](bagMaintainer{}, rel)
		if err != nil {
			t.Fatal(err)
		}
		n := 1 + rng.Intn(15)
		for id := blockseq.ID(1); id <= blockseq.ID(n); id++ {
			if err := g.AddBlock(id, id); err != nil {
				t.Fatal(err)
			}
			want := naiveWindowRelative(rel, id, w)
			got := g.Current()
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d t=%d bits=%v: current = %v, want %v",
					trial, id, bits, got, want)
			}
		}
	}
}

func TestAddBlockOutOfOrder(t *testing.T) {
	g, err := NewWindowIndependent[blockseq.ID, []blockseq.ID](bagMaintainer{}, 2, blockseq.All{})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AddBlock(2, 2); err == nil {
		t.Fatal("AddBlock accepted out-of-order id")
	}
	if err := g.AddBlock(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddBlock(1, 1); err == nil {
		t.Fatal("AddBlock accepted duplicate id")
	}
}

func TestAddBlockFailureBreaksMaintainer(t *testing.T) {
	g, err := NewWindowIndependent[blockseq.ID, []blockseq.ID](bagMaintainer{failOn: 2}, 2, blockseq.All{})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AddBlock(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddBlock(2, 2); err == nil {
		t.Fatal("expected injected failure")
	}
	if err := g.AddBlock(3, 3); err == nil {
		t.Fatal("broken maintainer accepted another block")
	}
}

func TestConstructorValidation(t *testing.T) {
	if _, err := NewWindowIndependent[int, int](nil, 0, blockseq.All{}); err == nil {
		t.Fatal("accepted w = 0")
	}
	if _, err := NewWindowIndependent[int, int](nil, 2, nil); err == nil {
		t.Fatal("accepted nil BSS")
	}
	if _, err := NewWindowRelative[int, int](nil, blockseq.NewWindowRel()); err == nil {
		t.Fatal("accepted empty window-relative BSS")
	}
}

func TestDistinctModelsWindowRelative(t *testing.T) {
	// ⟨111⟩ right-shifted: 111, 011, 001 — all distinct.
	g, err := NewWindowRelative[blockseq.ID, []blockseq.ID](bagMaintainer{}, blockseq.NewWindowRel(true, true, true))
	if err != nil {
		t.Fatal(err)
	}
	if got := g.DistinctModels(); got != 3 {
		t.Fatalf("DistinctModels = %d, want 3", got)
	}
	// ⟨100⟩: shifts 100, 010, 001 — distinct. ⟨000⟩: all zero — one.
	g2, _ := NewWindowRelative[blockseq.ID, []blockseq.ID](bagMaintainer{}, blockseq.NewWindowRel(false, false, false))
	if got := g2.DistinctModels(); got != 1 {
		t.Fatalf("DistinctModels all-zero = %d, want 1", got)
	}
}

func TestKindString(t *testing.T) {
	if WindowIndependent.String() != "window-independent" ||
		WindowRelative.String() != "window-relative" {
		t.Fatal("Kind.String mismatch")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind printed empty")
	}
}

// TestAllOnesBSSEqualsSlidingWindow: with BSS ⟨1...1⟩ the current model must
// contain exactly the window's blocks — the plain sliding-window case of the
// Section 3.2.4 trade-off discussion.
func TestAllOnesBSSEqualsSlidingWindow(t *testing.T) {
	g, err := NewWindowIndependent[blockseq.ID, []blockseq.ID](bagMaintainer{}, 4, blockseq.All{})
	if err != nil {
		t.Fatal(err)
	}
	for id := blockseq.ID(1); id <= 10; id++ {
		if err := g.AddBlock(id, id); err != nil {
			t.Fatal(err)
		}
	}
	want := []blockseq.ID{7, 8, 9, 10}
	if got := g.Current(); !reflect.DeepEqual(got, want) {
		t.Fatalf("current = %v, want %v", got, want)
	}
}

func TestSlotsAndRestoreState(t *testing.T) {
	g, err := NewWindowIndependent[blockseq.ID, []blockseq.ID](bagMaintainer{}, 3, blockseq.All{})
	if err != nil {
		t.Fatal(err)
	}
	for id := blockseq.ID(1); id <= 4; id++ {
		if err := g.AddBlock(id, id); err != nil {
			t.Fatal(err)
		}
	}
	slots := g.Slots()
	if len(slots) != 3 {
		t.Fatalf("Slots = %d", len(slots))
	}
	if !reflect.DeepEqual(slots[0], []blockseq.ID{2, 3, 4}) {
		t.Fatalf("slot 0 = %v", slots[0])
	}
	// Mutating the returned slice must not affect the maintainer.
	slots[0] = nil
	if g.Current() == nil {
		t.Fatal("Slots aliases internal storage")
	}

	// Build a second maintainer, restore the first one's state, and verify
	// both continue identically.
	g2, err := NewWindowIndependent[blockseq.ID, []blockseq.ID](bagMaintainer{}, 3, blockseq.All{})
	if err != nil {
		t.Fatal(err)
	}
	if err := g2.RestoreState(g.Slots(), g.T()); err != nil {
		t.Fatal(err)
	}
	if err := g.AddBlock(5, 5); err != nil {
		t.Fatal(err)
	}
	if err := g2.AddBlock(5, 5); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.Current(), g2.Current()) {
		t.Fatalf("restored maintainer diverged: %v vs %v", g.Current(), g2.Current())
	}
}

func TestRestoreStateValidation(t *testing.T) {
	g, err := NewWindowIndependent[blockseq.ID, []blockseq.ID](bagMaintainer{}, 3, blockseq.All{})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.RestoreState(make([][]blockseq.ID, 2), 1); err == nil {
		t.Error("accepted wrong slot count")
	}
	if err := g.RestoreState(make([][]blockseq.ID, 3), -1); err == nil {
		t.Error("accepted negative block id")
	}
}

func TestRestoreStateRepairsBrokenMaintainer(t *testing.T) {
	g, err := NewWindowIndependent[blockseq.ID, []blockseq.ID](bagMaintainer{failOn: 1}, 2, blockseq.All{})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AddBlock(1, 1); err == nil {
		t.Fatal("expected injected failure")
	}
	if err := g.RestoreState(make([][]blockseq.ID, 2), 0); err != nil {
		t.Fatal(err)
	}
	// The maintainer works again (block 1 still fails by injection, so
	// feed block ids that don't trigger it).
	g2, err := NewWindowIndependent[blockseq.ID, []blockseq.ID](bagMaintainer{failOn: 99}, 2, blockseq.All{})
	if err != nil {
		t.Fatal(err)
	}
	if err := g2.RestoreState(g.Slots(), g.T()); err != nil {
		t.Fatal(err)
	}
	if err := g2.AddBlock(1, 1); err != nil {
		t.Fatalf("restored maintainer still broken: %v", err)
	}
}

// TestAddBlockWorkersMetamorphic checks the metamorphic property of the
// parallel slot fan-out: for random BSSes and block streams, a GEMM run at
// any worker count produces exactly the slot collection of a serial run,
// and the current model keeps matching the from-scratch naive oracles.
func TestAddBlockWorkersMetamorphic(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	workerCounts := []int{0, 2, 3, 8}
	for trial := 0; trial < 30; trial++ {
		w := 1 + rng.Intn(6)
		n := 1 + rng.Intn(15)
		bits := make([]bool, n)
		for i := range bits {
			bits[i] = rng.Intn(2) == 1
		}
		relBits := make([]bool, w)
		for i := range relBits {
			relBits[i] = rng.Intn(2) == 1
		}
		bss := blockseq.Explicit{Bits: bits}
		rel := blockseq.NewWindowRel(relBits...)

		for _, workers := range workerCounts {
			gi, err := NewWindowIndependent[blockseq.ID, []blockseq.ID](bagMaintainer{}, w, bss)
			if err != nil {
				t.Fatal(err)
			}
			gi.SetWorkers(workers)
			si, err := NewWindowIndependent[blockseq.ID, []blockseq.ID](bagMaintainer{}, w, bss)
			if err != nil {
				t.Fatal(err)
			}
			gr, err := NewWindowRelative[blockseq.ID, []blockseq.ID](bagMaintainer{}, rel)
			if err != nil {
				t.Fatal(err)
			}
			gr.SetWorkers(workers)
			sr, err := NewWindowRelative[blockseq.ID, []blockseq.ID](bagMaintainer{}, rel)
			if err != nil {
				t.Fatal(err)
			}
			for id := blockseq.ID(1); id <= blockseq.ID(n); id++ {
				for _, g := range []*GEMM[blockseq.ID, []blockseq.ID]{gi, si, gr, sr} {
					if err := g.AddBlock(id, id); err != nil {
						t.Fatal(err)
					}
				}
				if !reflect.DeepEqual(gi.Slots(), si.Slots()) {
					t.Fatalf("trial %d workers %d t=%d: window-independent slots %v != serial %v",
						trial, workers, id, gi.Slots(), si.Slots())
				}
				if !reflect.DeepEqual(gr.Slots(), sr.Slots()) {
					t.Fatalf("trial %d workers %d t=%d: window-relative slots %v != serial %v",
						trial, workers, id, gr.Slots(), sr.Slots())
				}
				if want, got := naiveWindowIndependent(bss, id, w), gi.Current(); len(want)+len(got) > 0 && !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d workers %d t=%d: current %v != naive %v", trial, workers, id, got, want)
				}
				if want, got := naiveWindowRelative(rel, id, w), gr.Current(); len(want)+len(got) > 0 && !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d workers %d t=%d: window-relative current %v != naive %v",
						trial, workers, id, got, want)
				}
			}
		}
	}
}

// countingMaintainer's model is a pointer whose pointee counts Add calls —
// it detects a slot group updating its shared model more than once.
type countingMaintainer struct{}

func (countingMaintainer) Empty(*int) *int { n := 0; return &n }

func (countingMaintainer) Add(m *int, _ blockseq.ID) (*int, error) {
	*m++
	return m, nil
}

// TestAddBlockAliasedSlotsUpdateOnce restores one shared model into every
// slot and verifies a parallel AddBlock updates it exactly once: aliased
// slots form one update group regardless of the worker count.
func TestAddBlockAliasedSlotsUpdateOnce(t *testing.T) {
	for _, workers := range []int{1, 4} {
		g, err := NewWindowIndependent[blockseq.ID, *int](countingMaintainer{}, 4, blockseq.All{})
		if err != nil {
			t.Fatal(err)
		}
		g.SetWorkers(workers)
		shared := 0
		if err := g.RestoreState([]*int{&shared, &shared, &shared, &shared}, 2); err != nil {
			t.Fatal(err)
		}
		if err := g.AddBlock(3, 3); err != nil {
			t.Fatal(err)
		}
		// Slots 0..2 alias the restored model (slot 3 is fresh): one group,
		// one Add.
		if shared != 1 {
			t.Fatalf("workers %d: shared model updated %d times, want 1", workers, shared)
		}
	}
}

// slowCurrent's model is the bag of blocks it holds; Add sleeps, and sleeps
// much longer on the model about to become current — the fullest one, w-1
// blocks in a warm window.
type slowCurrent struct{ w int }

func (slowCurrent) Empty(*[]blockseq.ID) *[]blockseq.ID { return new([]blockseq.ID) }

func (m slowCurrent) Add(bag *[]blockseq.ID, blk blockseq.ID) (*[]blockseq.ID, error) {
	if len(*bag) == m.w-1 {
		time.Sleep(40 * time.Millisecond)
	} else {
		time.Sleep(5 * time.Millisecond)
	}
	*bag = append(*bag, blk)
	return bag, nil
}

// TestResponseIsTheCurrentSlotsUpdate: Response times the update of the model
// that becomes current, where it runs — not the step divided by w — at one
// worker and at two; and when the BSS does not select the block for that
// model there is no update to wait for.
func TestResponseIsTheCurrentSlotsUpdate(t *testing.T) {
	const w = 4
	for _, workers := range []int{1, 2} {
		g, err := NewWindowIndependent[blockseq.ID, *[]blockseq.ID](slowCurrent{w}, w, blockseq.All{})
		if err != nil {
			t.Fatal(err)
		}
		g.SetWorkers(workers)
		for id := blockseq.ID(1); id <= 2*w; id++ {
			start := time.Now()
			if err := g.AddBlock(id, id); err != nil {
				t.Fatal(err)
			}
			total := time.Since(start)
			if id < w {
				continue // warm-up: no model is w-1 blocks full yet
			}
			if r := g.Response(); r < 40*time.Millisecond || r > total {
				t.Errorf("workers %d t=%d: response %v, want the 40ms current-slot update within the %v step", workers, id, r, total)
			}
			if r := g.Response(); r <= total/w {
				t.Errorf("workers %d t=%d: response %v is no more than total/w = %v", workers, id, r, total/w)
			}
		}
	}

	// Window-relative ⟨1110⟩: the newest position is never selected, so the
	// slot that becomes current takes no update and the others still do.
	g, err := NewWindowRelative[blockseq.ID, *[]blockseq.ID](slowCurrent{w}, blockseq.NewWindowRel(true, true, true, false))
	if err != nil {
		t.Fatal(err)
	}
	for id := blockseq.ID(1); id <= 2*w; id++ {
		start := time.Now()
		if err := g.AddBlock(id, id); err != nil {
			t.Fatal(err)
		}
		if r, total := g.Response(), time.Since(start); r <= 0 || r >= 5*time.Millisecond || total < 5*time.Millisecond {
			t.Errorf("t=%d: response %v of a %v step, want only the shift (under the 5ms of one update)", id, r, total)
		}
	}
}

// spareChecker's model is a bag of blocks behind a pointer. Empty empties
// the spare it is handed and reuses it, after checking that no slot of g —
// the kept ones and the current one, which a failed step must leave intact —
// is that model.
type spareChecker struct {
	t      *testing.T
	g      **GEMM[blockseq.ID, *[]blockseq.ID]
	reused *int
}

func (c spareChecker) Empty(spare *[]blockseq.ID) *[]blockseq.ID {
	if spare == nil {
		return new([]blockseq.ID)
	}
	for j, m := range (*c.g).models {
		if m == spare {
			c.t.Fatalf("t=%d: slot %d's model handed to Empty as the spare", (*c.g).T()+1, j)
		}
	}
	*c.reused++
	*spare = (*spare)[:0]
	return spare
}

func (spareChecker) Add(bag *[]blockseq.ID, blk blockseq.ID) (*[]blockseq.ID, error) {
	*bag = append(*bag, blk)
	return bag, nil
}

// TestSpareIsNeverShared: after RestoreState with slots aliasing one model,
// and after RestoreState of a collection holding the spare itself, GEMM
// never hands Empty a model a slot still holds — and once the aliases have
// expired, the spare is reused again.
func TestSpareIsNeverShared(t *testing.T) {
	const w = 4
	var g *GEMM[blockseq.ID, *[]blockseq.ID]
	reused := 0
	g, err := NewWindowIndependent[blockseq.ID, *[]blockseq.ID](spareChecker{t, &g, &reused}, w, blockseq.All{})
	if err != nil {
		t.Fatal(err)
	}
	g.SetWorkers(2)
	step := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := g.AddBlock(g.T()+1, g.T()+1); err != nil {
				t.Fatal(err)
			}
		}
	}
	shared := &[]blockseq.ID{1, 2}
	if err := g.RestoreState([]*[]blockseq.ID{shared, shared, shared, shared}, 2); err != nil {
		t.Fatal(err)
	}
	step(w) // the shared model expires at the last of these steps
	if reused != 0 {
		t.Fatalf("%d spares handed out while the shared model was current", reused)
	}
	if !reflect.DeepEqual(*g.Current(), []blockseq.ID{3, 4, 5, 6}) {
		t.Fatalf("current after the aliases expired = %v, want [3 4 5 6]", *g.Current())
	}
	step(1)
	if reused != 1 {
		t.Fatalf("%d spares reused once the shared model expired, want 1", reused)
	}

	// The spare of the last step, restored into every slot.
	spare := g.spare
	if err := g.RestoreState([]*[]blockseq.ID{spare, spare, spare, spare}, g.T()); err != nil {
		t.Fatal(err)
	}
	step(2 * w) // the restored model expires at the w-th, and w spares follow
	if want := 1 + w; reused != want {
		t.Fatalf("%d spares reused in all, want %d", reused, want)
	}
	if got, want := *g.Current(), []blockseq.ID{12, 13, 14, 15}; !reflect.DeepEqual(got, want) {
		t.Fatalf("current = %v, want %v", got, want)
	}
}

// TestFanCoversEveryIndexOnce: fan's ranges cover [0, n) exactly once at
// every worker count, GOMAXPROCS (0) and more workers than items included.
func TestFanCoversEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100} {
		for _, w := range []int{0, 1, 2, 3, 16} {
			hits := make([]atomic.Int32, n)
			fan(n, w, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					hits[i].Add(1)
				}
			})
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("n=%d w=%d: index %d visited %d times", n, w, i, got)
				}
			}
		}
	}
}

// TestFanSerial: with one worker fn runs once, over the whole range, and
// with nothing to do it does not run at all.
func TestFanSerial(t *testing.T) {
	calls := 0
	fan(10, 1, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 10 {
			t.Errorf("range [%d, %d), want [0, 10)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("fn ran %d times", calls)
	}
	fan(0, 8, func(_, _ int) { t.Fatal("fn called for n=0") })
}
