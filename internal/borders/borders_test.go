package borders

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"github.com/demon-mining/demon/internal/blockseq"
	"github.com/demon-mining/demon/internal/diskio"
	"github.com/demon-mining/demon/internal/itemset"
	"github.com/demon-mining/demon/internal/tidlist"
)

// env bundles the stores and a maintainer for one counting strategy.
type env struct {
	blocks *itemset.BlockStore
	tids   *tidlist.Store
	mt     *Maintainer
}

func newEnv(t *testing.T, counterName string, minsup float64) *env {
	t.Helper()
	mem := diskio.NewMemStore()
	e := &env{
		blocks: itemset.NewBlockStore(mem),
		tids:   tidlist.NewStore(mem),
	}
	var c Counter
	switch counterName {
	case "PT-Scan":
		c = PTScan{Blocks: e.blocks}
	case "ECUT":
		c = ECUT{TIDs: e.tids}
	case "ECUT+":
		c = ECUTPlus{TIDs: e.tids}
	default:
		t.Fatalf("unknown counter %q", counterName)
	}
	e.mt = &Maintainer{Store: e.blocks, Counter: c, MinSupport: minsup}
	return e
}

// ingest stores a block everywhere and, for ECUT+, materializes the model's
// current frequent 2-itemsets (the paper's heuristic).
func (e *env) ingest(t *testing.T, m *Model, blk *itemset.TxBlock) {
	t.Helper()
	if err := e.blocks.Put(blk); err != nil {
		t.Fatal(err)
	}
	if err := e.tids.Materialize(blk); err != nil {
		t.Fatal(err)
	}
	var pairs []itemset.Itemset
	m.EachFrequent(func(x itemset.Itemset, _ int) {
		if len(x) == 2 {
			pairs = append(pairs, x.Clone())
		}
	})
	if len(pairs) > 0 {
		if _, _, err := e.tids.MaterializePairs(blk, pairs, -1); err != nil {
			t.Fatal(err)
		}
	}
}

func randomBlock(rng *rand.Rand, id blockseq.ID, firstTID, n, universe, avgLen int) *itemset.TxBlock {
	rows := make([][]itemset.Item, n)
	for i := range rows {
		m := 1 + rng.Intn(2*avgLen)
		rows[i] = make([]itemset.Item, m)
		for j := range rows[i] {
			rows[i][j] = itemset.Item(rng.Intn(universe))
		}
	}
	return itemset.NewTxBlock(id, firstTID, rows)
}

// allTxs flattens blocks for the Apriori reference run.
func allTxs(blocks []*itemset.TxBlock) []itemset.Transaction {
	var out []itemset.Transaction
	for _, b := range blocks {
		out = append(out, b.Txs...)
	}
	return out
}

func latticesMatch(t *testing.T, ctx string, got, want *itemset.Lattice) {
	t.Helper()
	if got.N != want.N {
		t.Fatalf("%s: N = %d, want %d", ctx, got.N, want.N)
	}
	if len(got.Frequent) != len(want.Frequent) {
		t.Fatalf("%s: |L| = %d, want %d\n got %v\nwant %v", ctx,
			len(got.Frequent), len(want.Frequent), got.FrequentSets(), want.FrequentSets())
	}
	for k, c := range want.Frequent {
		if got.Frequent[k] != c {
			t.Fatalf("%s: count(%v) = %d, want %d", ctx, k.Itemset(), got.Frequent[k], c)
		}
	}
	if len(got.Border) != len(want.Border) {
		t.Fatalf("%s: |NB| = %d, want %d\n got %v\nwant %v", ctx,
			len(got.Border), len(want.Border), got.BorderSets(), want.BorderSets())
	}
	for k, c := range want.Border {
		gc, ok := got.Border[k]
		if !ok || gc != c {
			t.Fatalf("%s: border count(%v) = %d (present %v), want %d", ctx, k.Itemset(), gc, ok, c)
		}
	}
}

// checkIndex requires the model's index to be structurally sound between
// steps (see CheckIndex) and to hold a family DecodeModel accepts as a model.
func checkIndex(t *testing.T, ctx string, m *Model) {
	t.Helper()
	if err := m.CheckIndex(); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	if _, err := DecodeModel(m.Encode()); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
}

var counterNames = []string{"PT-Scan", "ECUT", "ECUT+"}

// TestIncrementalMatchesApriori is the central correctness test: maintaining
// the model block by block — with every counting strategy — must yield
// exactly the lattice Apriori computes from scratch over the union of the
// blocks, after every step.
func TestIncrementalMatchesApriori(t *testing.T) {
	for _, name := range counterNames {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			for trial := 0; trial < 4; trial++ {
				minsup := []float64{0.05, 0.1, 0.2, 0.3}[trial]
				e := newEnv(t, name, minsup)
				m := e.mt.Empty()
				var seen []*itemset.TxBlock
				tid := 0
				for step := 0; step < 4; step++ {
					n := 30 + rng.Intn(40)
					blk := randomBlock(rng, blockseq.ID(step+1), tid, n, 12, 4)
					tid += n
					e.ingest(t, m, blk)
					if _, err := e.mt.AddBlock(m, blk); err != nil {
						t.Fatal(err)
					}
					seen = append(seen, blk)

					want, err := itemset.Apriori(itemset.SliceSource(allTxs(seen)), nil, minsup)
					if err != nil {
						t.Fatal(err)
					}
					latticesMatch(t, name, m.Lattice(), want)
					checkIndex(t, name, m)
					if err := m.Lattice().Validate(); err != nil {
						t.Fatalf("%s step %d: %v", name, step, err)
					}
				}
			}
		})
	}
}

// TestDeleteBlockMatchesApriori exercises the AuM path: after deleting a
// block the model must equal Apriori over the remaining blocks.
func TestDeleteBlockMatchesApriori(t *testing.T) {
	for _, name := range []string{"PT-Scan", "ECUT"} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			e := newEnv(t, name, 0.1)
			m := e.mt.Empty()
			var blocks []*itemset.TxBlock
			tid := 0
			for step := 0; step < 3; step++ {
				blk := randomBlock(rng, blockseq.ID(step+1), tid, 50, 10, 4)
				tid += 50
				e.ingest(t, m, blk)
				if _, err := e.mt.AddBlock(m, blk); err != nil {
					t.Fatal(err)
				}
				blocks = append(blocks, blk)
			}
			// Delete the oldest block, as a sliding window would.
			if _, err := e.mt.DeleteBlock(m, 1); err != nil {
				t.Fatal(err)
			}
			checkIndex(t, "after delete", m)
			want, err := itemset.Apriori(itemset.SliceSource(allTxs(blocks[1:])), nil, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			// The maintained model may track extra border itemsets for items
			// that only occurred in the deleted block (count now 0); they
			// are still valid border members only if observed. Apriori over
			// the remaining data has no knowledge of them, so compare
			// frequent sets exactly and border as superset.
			if m.Lattice().N != want.N {
				t.Fatalf("N = %d, want %d", m.Lattice().N, want.N)
			}
			if len(m.Lattice().Frequent) != len(want.Frequent) {
				t.Fatalf("|L| = %d, want %d", len(m.Lattice().Frequent), len(want.Frequent))
			}
			for k, c := range want.Frequent {
				if m.Lattice().Frequent[k] != c {
					t.Fatalf("count(%v) = %d, want %d", k.Itemset(), m.Lattice().Frequent[k], c)
				}
			}
			for k, c := range want.Border {
				gc, ok := m.Lattice().Border[k]
				if !ok || gc != c {
					t.Fatalf("border %v = %d (present %v), want %d", k.Itemset(), gc, ok, c)
				}
			}
			if err := m.Lattice().Validate(); err != nil {
				t.Fatal(err)
			}
			if m.Blocks[0] != 2 || len(m.Blocks) != 2 {
				t.Fatalf("Blocks = %v, want [2 3]", m.Blocks)
			}
		})
	}
}

func TestDeleteUnknownBlock(t *testing.T) {
	e := newEnv(t, "PT-Scan", 0.1)
	m := e.mt.Empty()
	if _, err := e.mt.DeleteBlock(m, 7); err == nil {
		t.Fatal("DeleteBlock of unknown block succeeded")
	}
}

func TestChangeMinSupportRaise(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	e := newEnv(t, "PT-Scan", 0.05)
	m := e.mt.Empty()
	blk := randomBlock(rng, 1, 0, 100, 10, 4)
	e.ingest(t, m, blk)
	if _, err := e.mt.AddBlock(m, blk); err != nil {
		t.Fatal(err)
	}
	scans := e.blocks.Store().Stats().Reads

	if _, err := e.mt.ChangeMinSupport(m, 0.2); err != nil {
		t.Fatal(err)
	}
	checkIndex(t, "after raise", m)
	// Raising the threshold must not read any data.
	if got := e.blocks.Store().Stats().Reads; got != scans {
		t.Fatalf("raising κ read data: %d -> %d reads", scans, got)
	}
	want, err := itemset.Apriori(itemset.SliceSource(blk.Txs), nil, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	// Frequent sets must match exactly; the maintained border may hold
	// additional deeper itemsets (tracked at the lower threshold) that the
	// fresh Apriori run never generated, but every true border member must
	// be present with the right count.
	if len(m.Lattice().Frequent) != len(want.Frequent) {
		t.Fatalf("|L| = %d, want %d", len(m.Lattice().Frequent), len(want.Frequent))
	}
	for k, c := range want.Frequent {
		if m.Lattice().Frequent[k] != c {
			t.Fatalf("count(%v) = %d, want %d", k.Itemset(), m.Lattice().Frequent[k], c)
		}
	}
	for k := range want.Border {
		if _, ok := m.Lattice().Border[k]; !ok {
			t.Fatalf("border itemset %v missing after raise", k.Itemset())
		}
	}
	if err := m.Lattice().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestChangeMinSupportLower(t *testing.T) {
	for _, name := range []string{"PT-Scan", "ECUT"} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			e := newEnv(t, name, 0.3)
			m := e.mt.Empty()
			blk := randomBlock(rng, 1, 0, 100, 10, 4)
			e.ingest(t, m, blk)
			if _, err := e.mt.AddBlock(m, blk); err != nil {
				t.Fatal(err)
			}
			if _, err := e.mt.ChangeMinSupport(m, 0.08); err != nil {
				t.Fatal(err)
			}
			checkIndex(t, "after lower", m)
			want, err := itemset.Apriori(itemset.SliceSource(blk.Txs), nil, 0.08)
			if err != nil {
				t.Fatal(err)
			}
			latticesMatch(t, name, m.Lattice(), want)
		})
	}
}

func TestChangeMinSupportRejectsBadValues(t *testing.T) {
	e := newEnv(t, "PT-Scan", 0.1)
	m := e.mt.Empty()
	for _, k := range []float64{0, 1, -1, 3} {
		if _, err := e.mt.ChangeMinSupport(m, k); err == nil {
			t.Errorf("ChangeMinSupport accepted %v", k)
		}
	}
}

func TestStatsPhases(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	e := newEnv(t, "PT-Scan", 0.1)
	m := e.mt.Empty()
	blk1 := randomBlock(rng, 1, 0, 80, 10, 4)
	e.ingest(t, m, blk1)
	st, err := e.mt.AddBlock(m, blk1)
	if err != nil {
		t.Fatal(err)
	}
	// Bootstrapping an empty model must have invoked the update phase.
	if !st.UpdateInvoked || st.CandidatesCounted == 0 {
		t.Fatalf("bootstrap stats = %+v", st)
	}
	// Adding an identical block changes nothing: no update phase.
	blk2 := itemset.NewTxBlock(2, blk1.Len(), nil)
	blk2.Txs = append(blk2.Txs, blk1.Txs...)
	for i := range blk2.Txs {
		blk2.Txs[i].TID = blk1.Len() + i
	}
	e.ingest(t, m, blk2)
	st, err = e.mt.AddBlock(m, blk2)
	if err != nil {
		t.Fatal(err)
	}
	if st.UpdateInvoked {
		t.Fatalf("identical block invoked the update phase: %+v", st)
	}
	if st.Promoted != 0 || st.Demoted != 0 {
		t.Fatalf("identical block changed the model: %+v", st)
	}
}

func TestModelClone(t *testing.T) {
	e := newEnv(t, "PT-Scan", 0.2)
	m := e.mt.Empty()
	blk := randomBlock(rand.New(rand.NewSource(9)), 1, 0, 40, 8, 3)
	e.ingest(t, m, blk)
	if _, err := e.mt.AddBlock(m, blk); err != nil {
		t.Fatal(err)
	}
	c := m.Clone()
	latticesMatch(t, "clone", c.Lattice(), m.Lattice())
	checkIndex(t, "clone", c)
	before := m.Encode()
	c.Blocks = append(c.Blocks, 99)
	blk2 := randomBlock(rand.New(rand.NewSource(10)), 2, 40, 40, 8, 3)
	e.ingest(t, c, blk2)
	if _, err := e.mt.AddBlock(c, blk2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m.Encode(), before) {
		t.Fatal("maintaining a clone changed the original")
	}
}

func TestCounterNames(t *testing.T) {
	wants := map[string]Counter{
		"PT-Scan": PTScan{},
		"ECUT":    ECUT{},
		"ECUT+":   ECUTPlus{},
	}
	for want, c := range wants {
		if got := c.Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
}

func TestAddBlockRejectsDuplicate(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	e := newEnv(t, "PT-Scan", 0.1)
	m := e.mt.Empty()
	blk := randomBlock(rng, 1, 0, 40, 8, 3)
	e.ingest(t, m, blk)
	if _, err := e.mt.AddBlock(m, blk); err != nil {
		t.Fatal(err)
	}
	if _, err := e.mt.AddBlock(m, blk); err == nil {
		t.Fatal("AddBlock accepted a duplicate block")
	}
}

// TestParallelCounterMatchesSerial: the three counting strategies report
// identical counts over the same blocks — PT-Scan's full scans, ECUT's item
// TID-lists and ECUT+'s pair TID-lists differ only in what they read.
func TestParallelCounterMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	e := newEnv(t, "PT-Scan", 0.1)
	m := e.mt.Empty()
	var ids []blockseq.ID
	tid := 0
	for i := 1; i <= 6; i++ {
		blk := randomBlock(rng, blockseq.ID(i), tid, 60, 12, 4)
		tid += 60
		e.ingest(t, m, blk)
		if _, err := e.mt.AddBlock(m, blk); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, blk.ID)
	}
	var sets []itemset.Itemset
	for k := range m.Lattice().Border {
		sets = append(sets, k.Itemset())
		if len(sets) == 25 {
			break
		}
	}
	itemset.SortItemsets(sets)

	var ref []int
	for _, c := range []Counter{PTScan{Blocks: e.blocks}, ECUT{TIDs: e.tids}, ECUTPlus{TIDs: e.tids}} {
		got, err := c.Count(sets, ids)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = got
		} else if !reflect.DeepEqual(got, ref) {
			t.Fatalf("%s: counts diverge from the PT-Scan reference", c.Name())
		}
	}
}
