package tidlist_test

import (
	"slices"
	"sync"
	"testing"

	"github.com/demon-mining/demon/internal/blockseq"
	"github.com/demon-mining/demon/internal/diskio"
	"github.com/demon-mining/demon/internal/itemset"
	"github.com/demon-mining/demon/internal/tidlist"
)

// slabBlocks builds blocks over items 1, 2 and 3 whose lists repeat their
// lengths and so their slab offsets from block to block, with different
// TIDs and different overlaps: item 1 is in every transaction, item 2 in one
// half of the block, item 3 in every third transaction. Every fourth block
// is three times as long, so the slab has room for the ones after it.
func slabBlocks(n int) []*itemset.TxBlock {
	var blocks []*itemset.TxBlock
	tid := 0
	for b := range n {
		size := 100
		if b%4 == 0 {
			size = 300
		}
		rows := make([][]itemset.Item, size)
		for i := range rows {
			rows[i] = []itemset.Item{1}
			if (i < size/2) == (b%2 == 0) {
				rows[i] = append(rows[i], 2)
			}
			if (i+b)%3 == 0 {
				rows[i] = append(rows[i], 3)
			}
		}
		blocks = append(blocks, itemset.NewTxBlock(blockseq.ID(b+1), tid, rows))
		tid += size
	}
	return blocks
}

// TestCountSlabReuseAcrossBlocks: consecutive blocks decode their lists at
// the same slab addresses with different contents, so any state keyed by a
// list's address that outlives its block miscounts. ECUT must equal the
// intersections of freshly decoded lists, serially and from several
// goroutines at once, as GEMM's slots call it.
func TestCountSlabReuseAcrossBlocks(t *testing.T) {
	blocks := slabBlocks(12)
	s := tidlist.NewStore(diskio.NewMemStore())
	ids := make([]blockseq.ID, len(blocks))
	for i, b := range blocks {
		if err := s.Materialize(b); err != nil {
			t.Fatal(err)
		}
		ids[i] = b.ID
	}
	sets := []itemset.Itemset{{1, 2}, {1, 2, 3}, {1, 3}, {2, 3}}
	want := make([]int, len(sets))
	for _, id := range ids {
		for i, x := range sets {
			lists := make([]tidlist.List, len(x))
			for j, it := range x {
				l, err := s.ItemList(id, it)
				if err != nil {
					t.Fatal(err)
				}
				lists[j] = l
			}
			if len(x) == 2 {
				want[i] += tidlist.IntersectCount(lists[0], lists[1])
			} else {
				n, _ := tidlist.IntersectManyCount(lists, nil)
				want[i] += n
			}
		}
	}

	got, err := s.CountECUT(sets, ids)
	if err != nil || !slices.Equal(got, want) {
		t.Fatalf("CountECUT = %v, %v; want %v", got, err, want)
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 5 {
				got, err := s.CountECUT(sets, ids)
				if err != nil || !slices.Equal(got, want) {
					t.Errorf("goroutine %d: CountECUT = %v, %v; want %v", g, got, err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
