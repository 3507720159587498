package borders

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/demon-mining/demon/internal/blockseq"
	"github.com/demon-mining/demon/internal/gemm"
	"github.com/demon-mining/demon/internal/itemset"
	"github.com/demon-mining/demon/internal/quest"
)

// The payloads under testdata/ were written by Model.Encode at commit
// ad27229, the last one whose model was a map lattice with a write-through
// index beside it, by the two runs below stopped after goldenCut blocks.
// They pin the checkpoint format: while these tests pass, no codec version
// has moved and a store written before the tree became the model restores.
const (
	goldenBlocks = 7
	goldenCut    = 5
)

// goldenInput ingests the pinned input — goldenBlocks Quest blocks of 300
// transactions over 60 items — under ECUT at κ = 0.1.
func goldenInput(t *testing.T) (*env, []*itemset.TxBlock) {
	t.Helper()
	gen, err := quest.New(quest.Config{AvgTxLen: 6, NumItems: 60, NumPatterns: 20, AvgPatternLen: 3, Seed: 18})
	if err != nil {
		t.Fatal(err)
	}
	e := newEnv(t, "ECUT", 0.1)
	blocks := make([]*itemset.TxBlock, goldenBlocks)
	for i := range blocks {
		blocks[i] = gen.Block(blockseq.ID(i+1), 300)
		if err := e.tids.Materialize(blocks[i]); err != nil {
			t.Fatal(err)
		}
	}
	return e, blocks
}

func golden(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// decodeGolden decodes a golden payload, requiring the decoded model to be
// sound and to encode to the same bytes.
func decodeGolden(t *testing.T, name string) *Model {
	t.Helper()
	want := golden(t, name)
	m, err := DecodeModel(want)
	if err != nil {
		t.Fatal(err)
	}
	checkIndex(t, name, m)
	if !bytes.Equal(m.Encode(), want) {
		t.Fatalf("%s: decode → encode changed the bytes", name)
	}
	return m
}

// TestGoldenUnrestrictedModel: the unrestricted-window model after goldenCut
// blocks encodes to the parent's bytes, and the parent's bytes, decoded,
// continue to the same final bytes as the uninterrupted run.
func TestGoldenUnrestrictedModel(t *testing.T) {
	e, blocks := goldenInput(t)
	resumed := decodeGolden(t, "unrestricted-ecut.model")
	m := e.mt.Empty()
	for i, blk := range blocks {
		if i == goldenCut && !bytes.Equal(m.Encode(), golden(t, "unrestricted-ecut.model")) {
			t.Fatalf("after %d blocks the model does not encode to the golden payload", i)
		}
		if _, err := e.mt.AddBlock(m, blk); err != nil {
			t.Fatal(err)
		}
		if i >= goldenCut {
			if _, err := e.mt.AddBlock(resumed, blk); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkIndex(t, "resumed", resumed)
	if !bytes.Equal(resumed.Encode(), m.Encode()) {
		t.Fatal("the decoded model and the uninterrupted run ended in different bytes")
	}
}

// slotAdapter lets GEMM drive the maintainer, as the window miner does.
type slotAdapter struct{ mt *Maintainer }

func (a slotAdapter) Empty() *Model { return a.mt.Empty() }
func (a slotAdapter) Add(m *Model, blk *itemset.TxBlock) (*Model, error) {
	_, err := a.mt.AddBlock(m, blk)
	return m, err
}

// TestGoldenGEMMSlot is the same for one future-window model of GEMM at
// w = 3: slot 1, which after goldenCut blocks covers the last two of them.
func TestGoldenGEMMSlot(t *testing.T) {
	e, blocks := goldenInput(t)
	resumed := decodeGolden(t, "gemm-slot.model")
	g, err := gemm.NewWindowIndependent[*itemset.TxBlock, *Model](slotAdapter{e.mt}, 3, blockseq.All{})
	if err != nil {
		t.Fatal(err)
	}
	g.SetWorkers(3) // the slots step concurrently through one Maintainer, as in the window miner
	for _, blk := range blocks[:goldenCut] {
		if err := g.AddBlock(blk, blk.ID); err != nil {
			t.Fatal(err)
		}
		for slot, m := range g.Slots() {
			checkIndex(t, fmt.Sprintf("slot %d after block %d", slot, blk.ID), m)
		}
	}
	if !bytes.Equal(g.Slots()[1].Encode(), golden(t, "gemm-slot.model")) {
		t.Fatalf("after %d blocks slot 1 does not encode to the golden payload", goldenCut)
	}
	// One more block and the slot is the current window's model.
	next := blocks[goldenCut]
	if err := g.AddBlock(next, next.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := e.mt.AddBlock(resumed, next); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumed.Encode(), g.Current().Encode()) {
		t.Fatal("the decoded slot and the uninterrupted run ended in different bytes")
	}
}

// FuzzDecodeModel: arbitrary bytes end in an error or in a sound model that
// encodes back to exactly those bytes, never in a panic, and never in more
// tracked sets than the input has bytes.
func FuzzDecodeModel(f *testing.F) {
	f.Add(golden(f, "unrestricted-ecut.model"))
	f.Add(golden(f, "gemm-slot.model"))
	f.Add((&Maintainer{MinSupport: 0.5}).Empty().Encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeModel(data)
		if err != nil {
			return
		}
		if err := m.CheckIndex(); err != nil {
			t.Fatal(err)
		}
		if size := m.ix.tree.Size(); size > len(data) {
			t.Fatalf("%d tracked sets from %d bytes", size, len(data))
		}
		if !bytes.Equal(m.Encode(), data) {
			t.Fatalf("decoded model encodes to different bytes:\n in %x\nout %x", data, m.Encode())
		}
	})
}
