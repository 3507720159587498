package tidlist

import (
	"cmp"
	"slices"
	"testing"

	"github.com/demon-mining/demon/internal/blockseq"
	"github.com/demon-mining/demon/internal/diskio"
	"github.com/demon-mining/demon/internal/itemset"
	"github.com/demon-mining/demon/internal/quest"
)

// questBlocks generates n blocks of per transactions from the Quest spec the
// repository benchmark's itemset workloads use.
func questBlocks(tb testing.TB, n, per int) []*itemset.TxBlock {
	tb.Helper()
	cfg, err := quest.ParseSpec("1M.10L.1I.2pats.4plen")
	if err != nil {
		tb.Fatal(err)
	}
	cfg.Seed = 3
	gen, err := quest.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	blocks := make([]*itemset.TxBlock, n)
	for i := range blocks {
		blocks[i] = gen.Block(blockseq.ID(i+1), per)
	}
	return blocks
}

// countEnv materializes blocks into a fresh in-memory store.
func countEnv(tb testing.TB, blocks []*itemset.TxBlock) (*Store, *diskio.MemStore, []blockseq.ID) {
	tb.Helper()
	mem := diskio.NewMemStore()
	s := NewStore(mem)
	ids := make([]blockseq.ID, len(blocks))
	for i, b := range blocks {
		if err := s.Materialize(b); err != nil {
			tb.Fatal(err)
		}
		ids[i] = b.ID
	}
	return s, mem, ids
}

// updateCandidates returns n candidates of the shape an update phase counts:
// a newly frequent item paired with each of the n most frequent items of the
// blocks, in SortItemsets order.
func updateCandidates(blocks []*itemset.TxBlock, n int) []itemset.Itemset {
	freq := make(map[itemset.Item]int)
	for _, b := range blocks {
		for _, tx := range b.Txs {
			for _, it := range tx.Items {
				freq[it]++
			}
		}
	}
	items := make([]itemset.Item, 0, len(freq))
	for it := range freq {
		items = append(items, it)
	}
	slices.SortFunc(items, func(a, b itemset.Item) int {
		return cmp.Or(cmp.Compare(freq[b], freq[a]), cmp.Compare(a, b))
	})
	out := make([]itemset.Itemset, n)
	for i, x := range items[:n] {
		out[i] = itemset.NewItemset(items[n], x)
	}
	itemset.SortItemsets(out)
	return out
}

// BenchmarkCountECUT: ECUT over 8 materialized 2,000-transaction blocks, 200
// candidates of the update-phase shape.
func BenchmarkCountECUT(b *testing.B) {
	blocks := questBlocks(b, 8, 2000)
	s, _, ids := countEnv(b, blocks)
	sets := updateCandidates(blocks, 200)
	b.ResetTimer()
	for range b.N {
		if _, err := s.CountECUT(sets, ids); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaterialize: the item TID-lists of one 2,000-transaction block,
// written over the same keys every iteration.
func BenchmarkMaterialize(b *testing.B) {
	blk := questBlocks(b, 1, 2000)[0]
	s := NewStore(diskio.NewMemStore())
	b.ResetTimer()
	for range b.N {
		if err := s.Materialize(blk); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMaterializeAllocations: materializing a block allocates one object per
// list the store copies and a constant beyond that, whatever its number of
// transactions or item occurrences.
func TestMaterializeAllocations(t *testing.T) {
	const ceiling = 16
	blk := questBlocks(t, 1, 2000)[0]
	mem := diskio.NewMemStore()
	s := NewStore(mem)
	if err := s.Materialize(blk); err != nil {
		t.Fatal(err)
	}
	before := mem.Stats().Writes
	allocs := testing.AllocsPerRun(20, func() {
		if err := s.Materialize(blk); err != nil {
			t.Fatal(err)
		}
	})
	distinct := (mem.Stats().Writes - before) / 21 // AllocsPerRun runs once more to warm up
	t.Logf("%.0f allocations, %d distinct items", allocs, distinct)
	if allocs > float64(distinct+ceiling) {
		t.Errorf("%.0f allocations for %d distinct items, ceiling distinct + %d", allocs, distinct, ceiling)
	}
}
