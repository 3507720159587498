package tidlist

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/demon-mining/demon/internal/blockseq"
	"github.com/demon-mining/demon/internal/diskio"
	"github.com/demon-mining/demon/internal/itemset"
)

// makeBlock builds a transaction block with the given rows.
func makeBlock(id blockseq.ID, firstTID int, rows [][]itemset.Item) *itemset.TxBlock {
	return itemset.NewTxBlock(id, firstTID, rows)
}

func TestMaterializeAndItemList(t *testing.T) {
	s := NewStore(diskio.NewMemStore())
	b := makeBlock(1, 10, [][]itemset.Item{
		{1, 2},
		{2},
		{1, 3},
	})
	if err := s.Materialize(b); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		item itemset.Item
		want List
	}{
		{1, List{10, 12}},
		{2, List{10, 11}},
		{3, List{12}},
		{9, nil}, // absent item: empty list
	}
	for _, tc := range tests {
		got, err := s.ItemList(1, tc.item)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ItemList(1, %d) = %v, want %v", tc.item, got, tc.want)
		}
	}
}

func TestMaterializePairsBudget(t *testing.T) {
	s := NewStore(diskio.NewMemStore())
	b := makeBlock(1, 0, [][]itemset.Item{
		{1, 2, 3},
		{1, 2},
		{1, 3},
		{2, 3},
	})
	if err := s.Materialize(b); err != nil {
		t.Fatal(err)
	}
	// Pair supports in this block: {1,2}=2, {1,3}=2, {2,3}=2. With budget 4
	// only the first two supplied pairs fit.
	pairs := []itemset.Itemset{
		itemset.NewItemset(1, 2),
		itemset.NewItemset(1, 3),
		itemset.NewItemset(2, 3),
	}
	chosen, used, err := s.MaterializePairs(b, pairs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(chosen) != 2 || used != 4 {
		t.Fatalf("chosen %v used %d, want 2 pairs / 4 entries", chosen, used)
	}
	if l, ok, _ := s.PairList(1, itemset.NewItemset(1, 2)); !ok || !reflect.DeepEqual(l, List{0, 1}) {
		t.Fatalf("PairList({1,2}) = %v ok=%v", l, ok)
	}
	if _, ok, _ := s.PairList(1, itemset.NewItemset(2, 3)); ok {
		t.Fatal("pair {2,3} should not be materialized under budget")
	}
	n, err := s.PairEntries([]blockseq.ID{1})
	if err != nil || n != 4 {
		t.Fatalf("PairEntries = %d, %v; want 4", n, err)
	}
}

func TestMaterializePairsUnlimitedBudget(t *testing.T) {
	s := NewStore(diskio.NewMemStore())
	b := makeBlock(1, 0, [][]itemset.Item{{1, 2}, {1, 2}})
	if err := s.Materialize(b); err != nil {
		t.Fatal(err)
	}
	chosen, used, err := s.MaterializePairs(b, []itemset.Itemset{itemset.NewItemset(1, 2)}, -1)
	if err != nil || len(chosen) != 1 || used != 2 {
		t.Fatalf("chosen=%v used=%d err=%v", chosen, used, err)
	}
}

func TestMaterializePairsRejectsNonPairs(t *testing.T) {
	s := NewStore(diskio.NewMemStore())
	b := makeBlock(1, 0, [][]itemset.Item{{1}})
	if _, _, err := s.MaterializePairs(b, []itemset.Itemset{itemset.NewItemset(1, 2, 3)}, -1); err == nil {
		t.Fatal("MaterializePairs accepted a 3-itemset")
	}
}

func TestPairIndexSurvivesStoreRestart(t *testing.T) {
	underlying := diskio.NewMemStore()
	s := NewStore(underlying)
	b := makeBlock(1, 0, [][]itemset.Item{{1, 2}})
	if err := s.Materialize(b); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.MaterializePairs(b, []itemset.Itemset{itemset.NewItemset(1, 2)}, -1); err != nil {
		t.Fatal(err)
	}
	// A fresh Store over the same diskio.Store must see the pair.
	s2 := NewStore(underlying)
	l, ok, err := s2.PairList(1, itemset.NewItemset(1, 2))
	if err != nil || !ok || !reflect.DeepEqual(l, List{0}) {
		t.Fatalf("restarted PairList = %v ok=%v err=%v", l, ok, err)
	}
}

// naiveCountBlocks counts supports, by position in sets, by scanning
// transactions.
func naiveCountBlocks(sets []itemset.Itemset, blocks []*itemset.TxBlock) []int {
	out := make([]int, len(sets))
	for _, b := range blocks {
		for _, tx := range b.Txs {
			for i, x := range sets {
				if tx.Contains(x) {
					out[i]++
				}
			}
		}
	}
	return out
}

func randomBlocks(rng *rand.Rand, nBlocks, txPerBlock, universe, avgLen int) []*itemset.TxBlock {
	blocks := make([]*itemset.TxBlock, nBlocks)
	tid := 0
	for i := range blocks {
		rows := make([][]itemset.Item, txPerBlock)
		for j := range rows {
			m := 1 + rng.Intn(2*avgLen)
			rows[j] = make([]itemset.Item, m)
			for k := range rows[j] {
				rows[j][k] = itemset.Item(rng.Intn(universe))
			}
		}
		blocks[i] = makeBlock(blockseq.ID(i+1), tid, rows)
		tid += txPerBlock
	}
	return blocks
}

func randomSets(rng *rand.Rand, n, universe, maxSize int) []itemset.Itemset {
	var out []itemset.Itemset
	seen := make(map[itemset.Key]bool)
	for len(out) < n {
		size := 1 + rng.Intn(maxSize)
		items := make([]itemset.Item, size)
		for j := range items {
			items[j] = itemset.Item(rng.Intn(universe))
		}
		c := itemset.NewItemset(items...)
		if seen[c.Key()] {
			continue
		}
		seen[c.Key()] = true
		out = append(out, c)
	}
	return out
}

func TestCountECUTMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		blocks := randomBlocks(rng, 3, 40, 15, 5)
		s := NewStore(diskio.NewMemStore())
		var ids []blockseq.ID
		for _, b := range blocks {
			if err := s.Materialize(b); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, b.ID)
		}
		sets := randomSets(rng, 12, 15, 4)
		got, err := s.CountECUT(sets, ids)
		if err != nil {
			t.Fatal(err)
		}
		want := naiveCountBlocks(sets, blocks)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: ECUT diverges from naive", trial)
		}
	}
}

func TestCountECUTSubsetOfBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	blocks := randomBlocks(rng, 4, 30, 10, 4)
	s := NewStore(diskio.NewMemStore())
	for _, b := range blocks {
		if err := s.Materialize(b); err != nil {
			t.Fatal(err)
		}
	}
	sets := randomSets(rng, 8, 10, 3)
	// Count only blocks 2 and 4, as a BSS would select.
	got, err := s.CountECUT(sets, []blockseq.ID{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	want := naiveCountBlocks(sets, []*itemset.TxBlock{blocks[1], blocks[3]})
	if !reflect.DeepEqual(got, want) {
		t.Fatal("ECUT over a block subset diverges from naive")
	}
}

func TestCountECUTPlusMatchesECUT(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		blocks := randomBlocks(rng, 3, 40, 12, 5)
		s := NewStore(diskio.NewMemStore())
		var ids []blockseq.ID
		for _, b := range blocks {
			if err := s.Materialize(b); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, b.ID)
		}
		// Materialize a random subset of pairs per block (different subsets
		// per block to exercise the availability checks).
		allPairs := randomSets(rng, 6, 12, 1) // seeds; build pairs below
		_ = allPairs
		for _, b := range blocks {
			var pairs []itemset.Itemset
			seen := make(map[itemset.Key]bool)
			for len(pairs) < 4 {
				p := itemset.NewItemset(itemset.Item(rng.Intn(12)), itemset.Item(rng.Intn(12)))
				if len(p) != 2 || seen[p.Key()] {
					continue
				}
				seen[p.Key()] = true
				pairs = append(pairs, p)
			}
			if _, _, err := s.MaterializePairs(b, pairs, -1); err != nil {
				t.Fatal(err)
			}
		}
		sets := randomSets(rng, 10, 12, 4)
		ecut, err := s.CountECUT(sets, ids)
		if err != nil {
			t.Fatal(err)
		}
		plus, err := s.CountECUTPlus(sets, ids)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ecut, plus) {
			t.Fatalf("trial %d: ECUT+ diverges from ECUT", trial)
		}
	}
}

func TestCountECUTPlusReadsFewerEntries(t *testing.T) {
	// With the pair {1,2} materialized and much rarer than items 1 and 2,
	// ECUT+ must fetch fewer TID entries than ECUT.
	rows := make([][]itemset.Item, 100)
	for i := range rows {
		switch {
		case i < 5:
			rows[i] = []itemset.Item{1, 2, 3}
		case i%2 == 0:
			rows[i] = []itemset.Item{1}
		default:
			rows[i] = []itemset.Item{2}
		}
	}
	b := makeBlock(1, 0, rows)
	s := NewStore(diskio.NewMemStore())
	if err := s.Materialize(b); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.MaterializePairs(b, []itemset.Itemset{itemset.NewItemset(1, 2)}, -1); err != nil {
		t.Fatal(err)
	}
	sets := []itemset.Itemset{itemset.NewItemset(1, 2, 3)}

	s.ResetEntriesRead()
	ecut, err := s.CountECUT(sets, []blockseq.ID{1})
	if err != nil {
		t.Fatal(err)
	}
	ecutEntries := s.EntriesRead()

	s.ResetEntriesRead()
	plus, err := s.CountECUTPlus(sets, []blockseq.ID{1})
	if err != nil {
		t.Fatal(err)
	}
	plusEntries := s.EntriesRead()

	if !reflect.DeepEqual(ecut, plus) {
		t.Fatalf("counts diverge: %v vs %v", ecut, plus)
	}
	if ecut[0] != 5 {
		t.Fatalf("count = %d, want 5", ecut[0])
	}
	if plusEntries >= ecutEntries {
		t.Fatalf("ECUT+ read %d entries, ECUT read %d; want fewer", plusEntries, ecutEntries)
	}
}

func TestCountEmptyItemsetRejected(t *testing.T) {
	s := NewStore(diskio.NewMemStore())
	if _, err := s.CountECUT([]itemset.Itemset{nil}, nil); err == nil {
		t.Fatal("CountECUT accepted empty itemset")
	}
	if _, err := s.CountECUTPlus([]itemset.Itemset{nil}, nil); err == nil {
		t.Fatal("CountECUTPlus accepted empty itemset")
	}
}

func TestPairListCorruptData(t *testing.T) {
	underlying := diskio.NewMemStore()
	s := NewStore(underlying)
	b := makeBlock(1, 0, [][]itemset.Item{{1, 2}})
	if err := s.Materialize(b); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.MaterializePairs(b, []itemset.Itemset{itemset.NewItemset(1, 2)}, -1); err != nil {
		t.Fatal(err)
	}
	// Corrupt the stored pair list; reads must surface the corruption.
	if err := underlying.Put("tid2/00000001/p1-2", []byte{0xFF, 0xFF, 0xFF, 0xFF, 0x7F}); err != nil {
		t.Fatal(err)
	}
	s2 := NewStore(underlying)
	if _, _, err := s2.PairList(1, itemset.NewItemset(1, 2)); err == nil {
		t.Fatal("PairList accepted corrupt data")
	}
	// Corrupt the pair index itself.
	if err := underlying.Put("tid2idx/00000001", []byte{0xFF, 0xFF, 0xFF, 0xFF, 0x7F}); err != nil {
		t.Fatal(err)
	}
	s3 := NewStore(underlying)
	if _, _, err := s3.PairList(1, itemset.NewItemset(1, 2)); err == nil {
		t.Fatal("PairList accepted corrupt pair index")
	}
}

func TestPairEntriesAcrossBlocks(t *testing.T) {
	s := NewStore(diskio.NewMemStore())
	for id := blockseq.ID(1); id <= 2; id++ {
		b := makeBlock(id, int(id-1)*3, [][]itemset.Item{{1, 2}, {1, 2}, {3}})
		if err := s.Materialize(b); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.MaterializePairs(b, []itemset.Itemset{itemset.NewItemset(1, 2)}, -1); err != nil {
			t.Fatal(err)
		}
	}
	n, err := s.PairEntries([]blockseq.ID{1, 2})
	if err != nil || n != 4 {
		t.Fatalf("PairEntries = %d, %v; want 4", n, err)
	}
	// A block with no pairs contributes zero.
	n, err = s.PairEntries([]blockseq.ID{1, 2, 99})
	if err != nil || n != 4 {
		t.Fatalf("PairEntries with absent block = %d, %v", n, err)
	}
}

func TestListsRejectTrailingBytes(t *testing.T) {
	underlying := diskio.NewMemStore()
	s := NewStore(underlying)
	b := makeBlock(1, 0, [][]itemset.Item{{1, 2}, {1}})
	if err := s.Materialize(b); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.MaterializePairs(b, []itemset.Itemset{itemset.NewItemset(1, 2)}, -1); err != nil {
		t.Fatal(err)
	}
	// Append garbage after a well-formed list: a decoder that stops at the
	// declared count would silently accept a truncated-then-overwritten
	// record, so trailing bytes must surface as corruption.
	for _, key := range []string{"tid/00000001/i1", "tid2/00000001/p1-2"} {
		data, err := underlying.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		if err := underlying.Put(key, append(data, 0x00)); err != nil {
			t.Fatal(err)
		}
	}
	s2 := NewStore(underlying)
	if _, err := s2.ItemList(1, 1); !errors.Is(err, diskio.ErrCorrupt) {
		t.Fatalf("ItemList with trailing bytes: err = %v, want ErrCorrupt", err)
	}
	if _, _, err := s2.PairList(1, itemset.NewItemset(1, 2)); !errors.Is(err, diskio.ErrCorrupt) {
		t.Fatalf("PairList with trailing bytes: err = %v, want ErrCorrupt", err)
	}
}

// TestKeyFormats: the keys built with strconv are the keys fmt built, so a
// store written before the change reads back after it.
func TestKeyFormats(t *testing.T) {
	for _, id := range []blockseq.ID{1, 42, 99999999, 100000000, 2147483648} {
		for _, pair := range []itemset.Itemset{{0, 1}, {7, 12}, {123, 45678}, {99999, 2147483647}} {
			if got, want := itemKey(id, pair[1]), fmt.Sprintf("tid/%08d/i%d", id, pair[1]); got != want {
				t.Errorf("itemKey = %q, want %q", got, want)
			}
			if got, want := pairKey(id, pair), fmt.Sprintf("tid2/%08d/p%d-%d", id, pair[0], pair[1]); got != want {
				t.Errorf("pairKey = %q, want %q", got, want)
			}
		}
		if got, want := pairIdxKey(id), fmt.Sprintf("tid2idx/%08d", id); got != want {
			t.Errorf("pairIdxKey = %q, want %q", got, want)
		}
	}
}
