package tidlist

import (
	"bytes"
	"cmp"
	"math"
	"slices"
	"testing"

	"github.com/demon-mining/demon/internal/diskio"
	"github.com/demon-mining/demon/internal/itemset"
)

// materializeReference is the item segment Materialize wrote before its
// radix sort: the items numbered by a map in order of first occurrence, put
// in order by one sort, and every TID dropped into its item's run of one
// array. It is the oracle of FuzzMaterializeMatchesReference.
func materializeReference(b *itemset.TxBlock) []byte {
	slotOf := make(map[itemset.Item]int)
	var items []itemset.Item // by slot
	var counts []int
	for _, tx := range b.Txs {
		for _, it := range tx.Items {
			slot, ok := slotOf[it]
			if !ok {
				slot = len(items)
				slotOf[it] = slot
				items, counts = append(items, it), append(counts, 0)
			}
			counts[slot]++
		}
	}
	order := make([]int, len(items)) // slots by item
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(items[a], items[b]) })
	keys, ends, next := make([]uint64, len(items)), make([]int, len(items)), make([]int, len(items))
	at := 0
	for i, slot := range order {
		next[slot] = at
		at += counts[slot]
		keys[i], ends[i] = uint64(items[slot]), at
	}
	tids := make([]int, at)
	for _, tx := range b.Txs {
		for _, it := range tx.Items {
			slot := slotOf[it]
			tids[next[slot]] = tx.TID
			next[slot]++
		}
	}
	return encodeSegment(b.FirstTID, keys, tids, ends)
}

// edgeItems are the items at the radix sort's edges: one pass covers items
// below 2^11, two below 2^22, three the rest up to MaxInt32.
var edgeItems = []itemset.Item{1<<11 - 1, 1 << 11, 1<<11 + 1, 1<<22 - 1, 1 << 22, math.MaxInt32 - 1, math.MaxInt32}

// fuzzBlock reads a block from data: 0xff ends a row, a byte from 0xf0
// is edgeItems[byte−0xf0] (wrapping), any other byte is that item. So rows
// may be empty, repeat, hold duplicates or lie 128 rows and more apart.
func fuzzBlock(data []byte, first uint64) *itemset.TxBlock {
	rows := [][]itemset.Item{nil}
	for _, c := range data {
		switch {
		case c == 0xff:
			rows = append(rows, nil)
		case c >= 0xf0:
			rows[len(rows)-1] = append(rows[len(rows)-1], edgeItems[int(c-0xf0)%len(edgeItems)])
		default:
			rows[len(rows)-1] = append(rows[len(rows)-1], itemset.Item(c))
		}
	}
	return itemset.NewTxBlock(5, int(first%maxTID), rows)
}

// FuzzMaterializeMatchesReference: the item segment Materialize stores is
// byte for byte materializeReference's, at every radix pass count (none
// when every item is 0, one to three by the largest item) and any first TID.
func FuzzMaterializeMatchesReference(f *testing.F) {
	repeated := bytes.Repeat([]byte{1, 2, 3, 0xff}, 300)
	f.Add([]byte{}, uint64(0))
	f.Add([]byte{0xff, 0xff, 0xff}, uint64(7))             // empty rows
	f.Add([]byte{0, 0xff, 0, 0xff, 0xff, 0}, uint64(1))    // one item: no pass
	f.Add([]byte{9}, uint64(0))                            // one item in one row
	f.Add([]byte{0xf0, 5, 0xff, 5, 0xf0}, uint64(3))       // 2^11 − 1: one pass
	f.Add([]byte{0xf1, 0xf0, 0xff, 0xf2, 0}, uint64(3))    // 2^11: two passes
	f.Add([]byte{0xf3, 0xf4, 0xff, 0xf0, 1}, uint64(3))    // 2^22: three passes
	f.Add([]byte{0xf6, 0xf5, 0xff, 0xf6, 0xf6}, uint64(3)) // MaxInt32
	f.Add(repeated, uint64(math.MaxInt64))                 // repeated rows, a large first TID
	f.Add(append(append([]byte{4, 0xf6}, bytes.Repeat([]byte{0xff}, 200)...), 4, 0xf6), uint64(1<<40))
	f.Fuzz(func(t *testing.T, data []byte, first uint64) {
		b := fuzzBlock(data, first)
		mem := diskio.NewMemStore()
		if err := NewStore(mem).Materialize(b); err != nil {
			t.Fatal(err)
		}
		got, err := mem.Get(itemKey(b.ID))
		if err != nil {
			t.Fatal(err)
		}
		if want := materializeReference(b); !bytes.Equal(got, want) {
			t.Fatalf("Materialize stored %x, the reference %x", got, want)
		}
	})
}
