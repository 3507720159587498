package demon

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestItemsetMinerRandomOperations is a model-based test: a long random
// sequence of block additions, oldest-block deletions and threshold changes
// is applied to the miner, and after every operation the maintained lattice
// is cross-checked against a from-scratch Apriori run over the blocks the
// model should currently cover. This exercises the interactions between the
// BORDERS phases (demotion, promotion, expansion) that no single-operation
// test reaches.
func TestItemsetMinerRandomOperations(t *testing.T) {
	for _, strategy := range []CountingStrategy{PTScan, ECUT} {
		t.Run(strategy.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(70 + strategy)))
			minsup := 0.15
			m, err := NewItemsetMiner(ItemsetMinerConfig{MinSupport: minsup, Strategy: strategy})
			if err != nil {
				t.Fatal(err)
			}
			// covered mirrors the blocks the model should span.
			var covered [][][]Item
			for op := 0; op < 25; op++ {
				switch {
				case len(covered) > 1 && rng.Float64() < 0.25:
					// Delete the oldest block.
					if _, err := m.DeleteOldestBlock(); err != nil {
						t.Fatalf("op %d delete: %v", op, err)
					}
					covered = covered[1:]
				case rng.Float64() < 0.2:
					// Change the threshold up or down.
					minsup = []float64{0.08, 0.15, 0.25, 0.35}[rng.Intn(4)]
					if _, err := m.ChangeMinSupport(minsup); err != nil {
						t.Fatalf("op %d retarget: %v", op, err)
					}
				default:
					rows := randomTxRows(rng, 30+rng.Intn(40), 10, 4)
					if _, err := m.AddBlock(rows); err != nil {
						t.Fatalf("op %d add: %v", op, err)
					}
					covered = append(covered, rows)
				}
				assertModelSound(t, fmt.Sprintf("op %d", op), m.model)
				if len(covered) == 0 {
					continue
				}
				want := aprioriRef(t, covered, minsup)
				got := m.Lattice()
				if got.N != want.N {
					t.Fatalf("op %d: N = %d, want %d", op, got.N, want.N)
				}
				if len(got.Frequent) != len(want.Frequent) {
					t.Fatalf("op %d: |L| = %d, want %d", op, len(got.Frequent), len(want.Frequent))
				}
				for k, c := range want.Frequent {
					if got.Frequent[k] != c {
						t.Fatalf("op %d: count(%v) = %d, want %d", op, k.Itemset(), got.Frequent[k], c)
					}
				}
				if err := got.Validate(); err != nil {
					t.Fatalf("op %d: %v", op, err)
				}
			}
		})
	}
}

// assertWindowModelsSound checks the model of every GEMM slot.
func assertWindowModelsSound(t *testing.T, m *ItemsetWindowMiner) {
	t.Helper()
	for slot, model := range m.g.Slots() {
		assertModelSound(t, fmt.Sprintf("slot %d", slot), model)
	}
}

// TestWindowMinerRandomBSS drives window miners with random window-relative
// sequences and random block streams, cross-checking the current model
// against Apriori over exactly the blocks the BSS selects.
func TestWindowMinerRandomBSS(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 5; trial++ {
		w := 2 + rng.Intn(3)
		bits := make([]byte, w)
		ones := 0
		for i := range bits {
			if rng.Intn(2) == 1 {
				bits[i] = '1'
				ones++
			} else {
				bits[i] = '0'
			}
		}
		if ones == 0 {
			bits[rng.Intn(w)] = '1'
		}
		rel, err := ParseWindowRelBSS(string(bits))
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewItemsetWindowMiner(ItemsetWindowMinerConfig{
			MinSupport:   0.15,
			Strategy:     ECUT,
			WindowRelBSS: rel,
		})
		if err != nil {
			t.Fatal(err)
		}
		var blocks [][][]Item
		steps := w + 2 + rng.Intn(4)
		for step := 0; step < steps; step++ {
			rows := randomTxRows(rng, 30+rng.Intn(30), 8, 3)
			blocks = append(blocks, rows)
			if _, err := m.AddBlock(rows); err != nil {
				t.Fatal(err)
			}
			assertWindowModelsSound(t, m)

			// Expected selection: position w right-aligns with the latest
			// block.
			t1 := len(blocks)
			var want [][][]Item
			for idx := 1; idx <= t1; idx++ {
				pos := idx + w - t1
				if pos >= 1 && rel.BitAt(pos) {
					want = append(want, blocks[idx-1])
				}
			}
			got := m.Current()
			if len(want) == 0 {
				if got.N != 0 {
					t.Fatalf("trial %d step %d: model over %d tx, want empty", trial, step, got.N)
				}
				continue
			}
			ref := aprioriRef(t, want, 0.15)
			if got.N != ref.N || len(got.Frequent) != len(ref.Frequent) {
				t.Fatalf("trial %d step %d (bss %s): N %d/%d, |L| %d/%d",
					trial, step, string(bits), got.N, ref.N, len(got.Frequent), len(ref.Frequent))
			}
			for k, c := range ref.Frequent {
				if got.Frequent[k] != c {
					t.Fatalf("trial %d step %d: count(%v) = %d, want %d",
						trial, step, k.Itemset(), got.Frequent[k], c)
				}
			}
		}
	}
}

// TestWindowMinerRandomIndependentBSS drives window miners with random
// window-independent sequences, cross-checking the current model against
// Apriori over the window's selected blocks.
func TestWindowMinerRandomIndependentBSS(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 5; trial++ {
		w := 2 + rng.Intn(3)
		bits := make([]bool, 12)
		for i := range bits {
			bits[i] = rng.Intn(2) == 1
		}
		bss := BSSFunc(func(id BlockID) bool {
			if int(id) <= len(bits) {
				return bits[id-1]
			}
			return false
		})
		m, err := NewItemsetWindowMiner(ItemsetWindowMinerConfig{
			MinSupport: 0.15,
			WindowSize: w,
			BSS:        bss,
		})
		if err != nil {
			t.Fatal(err)
		}
		var blocks [][][]Item
		steps := w + 2 + rng.Intn(4)
		for step := 0; step < steps; step++ {
			rows := randomTxRows(rng, 30+rng.Intn(30), 8, 3)
			blocks = append(blocks, rows)
			if _, err := m.AddBlock(rows); err != nil {
				t.Fatal(err)
			}
			assertWindowModelsSound(t, m)

			lo := len(blocks) - w
			if lo < 0 {
				lo = 0
			}
			var want [][][]Item
			for idx := lo; idx < len(blocks); idx++ {
				if bits[idx] {
					want = append(want, blocks[idx])
				}
			}
			got := m.Current()
			if len(want) == 0 {
				if got.N != 0 {
					t.Fatalf("trial %d step %d: model over %d tx, want empty", trial, step, got.N)
				}
				continue
			}
			ref := aprioriRef(t, want, 0.15)
			if got.N != ref.N || len(got.Frequent) != len(ref.Frequent) {
				t.Fatalf("trial %d step %d: N %d/%d, |L| %d/%d",
					trial, step, got.N, ref.N, len(got.Frequent), len(ref.Frequent))
			}
			for k, c := range ref.Frequent {
				if got.Frequent[k] != c {
					t.Fatalf("trial %d step %d: count(%v) = %d, want %d",
						trial, step, k.Itemset(), got.Frequent[k], c)
				}
			}
		}
	}
}
