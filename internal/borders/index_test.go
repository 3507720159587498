package borders

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/demon-mining/demon/internal/blockseq"
	"github.com/demon-mining/demon/internal/itemset"
)

// newCandidates is the from-scratch candidate generator the index's
// incremental one replaced, kept as the oracle: a prefix join within each size class of the
// frequent sets, the Apriori subset prune, a filter against already-tracked
// itemsets, sorted.
func newCandidates(l *itemset.Lattice) []itemset.Itemset {
	bySize := make(map[int][]itemset.Itemset)
	freqKeys := make(map[itemset.Key]bool, len(l.Frequent))
	for k := range l.Frequent {
		x := k.Itemset()
		bySize[len(x)] = append(bySize[len(x)], x)
		freqKeys[k] = true
	}
	var out []itemset.Itemset
	for _, sets := range bySize {
		cands := itemset.PruneByFrequent(itemset.PrefixJoin(sets), freqKeys)
		for _, c := range cands {
			k := c.Key()
			if _, ok := l.Frequent[k]; ok {
				continue
			}
			if _, ok := l.Border[k]; ok {
				continue
			}
			out = append(out, c)
		}
	}
	itemset.SortItemsets(out)
	return out
}

func sameSetsInOrder(got, want []itemset.Itemset) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d candidates, want %d\n got %v\nwant %v", len(got), len(want), got, want)
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			return fmt.Errorf("candidate %d is %v, want %v\n got %v\nwant %v", i, got[i], want[i], got, want)
		}
	}
	return nil
}

// oracleCounter sits between the maintainer and its counter: whenever the
// update phase asks for counts, the lattice is exactly as the from-scratch
// generator would have seen it, so the candidates handed over must be its
// output — the same sets in the same order.
type oracleCounter struct {
	Counter
	model *Model
	t     *testing.T
	calls int
}

func (c *oracleCounter) Count(sets []itemset.Itemset, blocks []blockseq.ID) ([]int, error) {
	c.calls++
	c.model.ix.listFrequent() // mid-step: the maintainer relists when it is done
	if err := sameSetsInOrder(sets, newCandidates(c.model.Lattice())); err != nil {
		c.t.Fatalf("update-phase round %d: %v", c.calls, err)
	}
	return c.Counter.Count(sets, blocks)
}

// TestCandidatesMatchFromScratchThroughMaintenance drives random additions,
// deletions and threshold changes and checks every candidate set the update
// phase generates incrementally against the from-scratch generator.
func TestCandidatesMatchFromScratchThroughMaintenance(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := newEnv(t, "ECUT", 0.12)
		m := e.mt.Empty()
		oracle := &oracleCounter{Counter: e.mt.Counter, model: m, t: t}
		e.mt.Counter = oracle
		tid := 0
		for op := 0; op < 30; op++ {
			switch {
			case len(m.Blocks) > 1 && rng.Intn(4) == 0:
				if _, err := e.mt.DeleteBlock(m, m.Blocks[0]); err != nil {
					t.Fatal(err)
				}
			case len(m.Blocks) > 0 && rng.Intn(5) == 0:
				if _, err := e.mt.ChangeMinSupport(m, []float64{0.06, 0.12, 0.2, 0.3}[rng.Intn(4)]); err != nil {
					t.Fatal(err)
				}
			default:
				n := 30 + rng.Intn(40)
				blk := randomBlock(rng, blockseq.ID(op+1), tid, n, 11, 4)
				tid += n
				e.ingest(t, m, blk)
				if _, err := e.mt.AddBlock(m, blk); err != nil {
					t.Fatal(err)
				}
			}
			checkIndex(t, fmt.Sprintf("seed %d op %d", seed, op), m)
			if err := m.Lattice().Validate(); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
		}
		if oracle.calls == 0 {
			t.Fatalf("seed %d: the update phase never ran", seed)
		}
	}
}

// TestCandidatesMatchFromScratchOnRandomLattices takes complete lattices
// mined from random data, promotes a random part of the border the way
// reclassification does, and compares the incremental generator with the
// from-scratch one round after round, classifying each round's candidates at
// random.
func TestCandidatesMatchFromScratchOnRandomLattices(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		blk := randomBlock(rng, 1, 0, 80, 6+rng.Intn(8), 2+rng.Intn(4))
		l, err := itemset.Apriori(itemset.SliceSource(blk.Txs), nil, 0.05+0.3*rng.Float64())
		if err != nil {
			t.Fatal(err)
		}
		m := FromLattice(l, 1)
		ix := m.ix
		var freshNodes []int32
		for n, cl := range ix.class {
			if cl == border && rng.Intn(3) == 0 {
				ix.class[n] = fresh
				freshNodes = append(freshNodes, int32(n))
			}
		}
		for round := 0; len(freshNodes) > 0; round++ {
			ix.listFrequent()
			want := newCandidates(m.Lattice())
			got := ix.candidates(freshNodes)
			if err := sameSetsInOrder(got, want); err != nil {
				t.Fatalf("seed %d round %d: %v", seed, round, err)
			}
			freshNodes = freshNodes[:0]
			for _, c := range got {
				if rng.Intn(2) == 0 {
					freshNodes = append(freshNodes, ix.track(c, 1, fresh))
				} else {
					ix.track(c, 0, border)
				}
			}
		}
		// The counts are made up, so only the structure can be checked.
		ix.listFrequent()
		if err := m.CheckIndex(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestDetectionAllocationsIndependentOfTrackedSize: a steady-state AddBlock
// that only detects — the block repeats the model's data, so nothing changes
// class — allocates a small constant number of objects, the same at two
// tracked-family sizes an order of magnitude apart.
func TestDetectionAllocationsIndependentOfTrackedSize(t *testing.T) {
	const ceiling = 4
	var tracked []int
	for _, universe := range []int{12, 120} {
		rng := rand.New(rand.NewSource(17))
		e := newEnv(t, "ECUT", 0.02)
		m := e.mt.Empty()
		blk := randomBlock(rng, 1, 0, 400, universe, 4)
		e.ingest(t, m, blk)
		if _, err := e.mt.AddBlock(m, blk); err != nil {
			t.Fatal(err)
		}
		m.Blocks = make([]blockseq.ID, 1, 1024) // keep the block list from growing
		tracked = append(tracked, m.ix.tree.Size())
		next := blockseq.ID(2)
		allocs := testing.AllocsPerRun(50, func() {
			blk.ID = next
			next++
			st, err := e.mt.AddBlock(m, blk)
			if err != nil || st.UpdateInvoked || st.Demoted != 0 {
				t.Fatalf("not a detection-only step: %+v, %v", st, err)
			}
		})
		if allocs > ceiling {
			t.Errorf("universe %d (%d tracked sets): %.0f allocations per detection-only AddBlock, ceiling %d",
				universe, tracked[len(tracked)-1], allocs, ceiling)
		}
		checkIndex(t, fmt.Sprintf("universe %d", universe), m)
	}
	if tracked[1] < 8*tracked[0] {
		t.Fatalf("tracked families %v are not an order of magnitude apart", tracked)
	}
}
