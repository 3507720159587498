package borders

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"github.com/demon-mining/demon/internal/blockseq"
	"github.com/demon-mining/demon/internal/gemm"
	"github.com/demon-mining/demon/internal/itemset"
)

// newAdapter is slotAdapter without the recycling: every fresh slot is a new
// model.
type newAdapter struct{ slotAdapter }

func (a newAdapter) Empty(*Model) *Model { return a.mt.Empty() }

// TestRecycledSlotsMatchNewModels: GEMM building each fresh slot in the
// memory of the model that expired a step earlier keeps, at every step, the
// slot encodings of a GEMM that builds each from nothing — under a
// window-independent BSS and window-relative ones, one of which never
// selects the newest block for the fresh slot.
func TestRecycledSlotsMatchNewModels(t *testing.T) {
	const w, blocks = 4, 5 * 4
	rng := rand.New(rand.NewSource(5))
	bits := make([]bool, blocks)
	for i := range bits {
		bits[i] = rng.Intn(4) > 0
	}
	for _, bss := range []struct {
		name string
		bss  blockseq.BSS
		rel  blockseq.WindowRelBSS
	}{
		{"window-independent", blockseq.Explicit{Bits: bits}, blockseq.WindowRelBSS{}},
		{"window-relative 1101", nil, blockseq.NewWindowRel(true, true, false, true)},
		{"window-relative 1110", nil, blockseq.NewWindowRel(true, true, true, false)},
	} {
		e := newEnv(t, "ECUT", 0.12)
		recycled, err := gemm.New[*itemset.TxBlock, *Model](slotAdapter{e.mt}, w, bss.bss, bss.rel)
		if err != nil {
			t.Fatal(err)
		}
		recycled.SetWorkers(2)
		built, err := gemm.New[*itemset.TxBlock, *Model](newAdapter{slotAdapter{e.mt}}, w, bss.bss, bss.rel)
		if err != nil {
			t.Fatal(err)
		}
		tid := 0
		for id := blockseq.ID(1); id <= blocks; id++ {
			blk := randomBlock(rng, id, tid, 40+rng.Intn(40), 11, 4)
			tid += len(blk.Txs)
			e.ingest(t, recycled.Current(), blk)
			for _, g := range []*gemm.GEMM[*itemset.TxBlock, *Model]{recycled, built} {
				if err := g.AddBlock(blk, id); err != nil {
					t.Fatal(err)
				}
			}
			want := built.Slots()
			for j, m := range recycled.Slots() {
				ctx := fmt.Sprintf("%s: slot %d after block %d", bss.name, j, id)
				checkIndex(t, ctx, m)
				if !bytes.Equal(m.Encode(), want[j].Encode()) {
					t.Fatalf("%s: the recycled model encodes differently from a new one", ctx)
				}
			}
		}
	}
}

// failOnly fails the counting pass over exactly the one block: the fresh
// slot's, when the block arrives in a warm window.
type failOnly struct {
	Counter
	block blockseq.ID
}

func (c failOnly) Count(sets []itemset.Itemset, blocks []blockseq.ID) ([]int, error) {
	if len(blocks) == 1 && blocks[0] == c.block {
		return nil, errors.New("injected counting failure")
	}
	return c.Counter.Count(sets, blocks)
}

// TestFailedStepKeepsCurrent: a step whose update fails on the fresh slot —
// built in the memory of the model that expired at the step before — leaves
// the slot collection as it was, and the current model encoding to the
// bytes it had.
func TestFailedStepKeepsCurrent(t *testing.T) {
	const w, failOn = 3, 7
	rng := rand.New(rand.NewSource(9))
	e := newEnv(t, "ECUT", 0.12)
	e.mt.Counter = failOnly{Counter: e.mt.Counter, block: failOn}
	g, err := gemm.NewWindowIndependent[*itemset.TxBlock, *Model](slotAdapter{e.mt}, w, blockseq.All{})
	if err != nil {
		t.Fatal(err)
	}
	g.SetWorkers(w)
	tid := 0
	for id := blockseq.ID(1); id <= failOn; id++ {
		blk := randomBlock(rng, id, tid, 60, 11, 4)
		tid += len(blk.Txs)
		e.ingest(t, g.Current(), blk)
		if id < failOn {
			if err := g.AddBlock(blk, id); err != nil {
				t.Fatal(err)
			}
			continue
		}
		before, current := g.Slots(), g.Current().Encode()
		if err := g.AddBlock(blk, id); err == nil {
			t.Fatal("the fresh slot's counting failure did not fail the step")
		}
		for j, m := range g.Slots() {
			if m != before[j] {
				t.Fatalf("the failed step replaced slot %d", j)
			}
		}
		if !bytes.Equal(g.Current().Encode(), current) {
			t.Fatal("the failed step changed the current model")
		}
		checkIndex(t, "current after the failed step", g.Current())
	}
}
