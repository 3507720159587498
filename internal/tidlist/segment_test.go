package tidlist

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/demon-mining/demon/internal/allocbound"
	"github.com/demon-mining/demon/internal/blockseq"
	"github.com/demon-mining/demon/internal/diskio"
	_ "github.com/demon-mining/demon/internal/diskio/kvfile" // the kvfile: scheme
	"github.com/demon-mining/demon/internal/itemset"
)

// goldenBlock is block 3 of 200 transactions from TID 1000: item 0 in every
// fifth, 5 in every second, 300 in every seventh and 70000 in the second and
// the next to last, so the segments hold one- to three-byte key gaps, one-
// and two-byte TID gaps, and an empty pair list.
func goldenBlock() *itemset.TxBlock {
	rows := make([][]itemset.Item, 200)
	for i := range rows {
		for it, in := range map[itemset.Item]bool{0: i%5 == 0, 5: i%2 == 0, 300: i%7 == 0, 70000: i == 1 || i == 198} {
			if in {
				rows[i] = append(rows[i], it)
			}
		}
	}
	return itemset.NewTxBlock(3, 1000, rows)
}

// goldenPairs are the pairs materialized from goldenBlock, in the order of
// a support ranking; no transaction holds {300, 70000}.
var goldenPairs = []itemset.Itemset{{0, 5}, {5, 300}, {0, 300}, {5, 70000}, {300, 70000}}

// The payloads under testdata/ were written by Materialize and
// MaterializePairs from goldenBlock and goldenPairs when a block's lists
// became one segment. They pin the segment format: while this test passes,
// a store written then reads back.
func TestSegmentGolden(t *testing.T) {
	mem := diskio.NewMemStore()
	s := NewStore(mem)
	b := goldenBlock()
	if err := s.Materialize(b); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.MaterializePairs(b, goldenPairs, -1); err != nil {
		t.Fatal(err)
	}
	for key, name := range map[string]string{"tid/00000003": "item.segment", "tid2/00000003": "pair.segment"} {
		got, err := mem.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		if want := golden(t, name); !bytes.Equal(got, want) {
			t.Fatalf("%s: the segment is %x, the golden payload %x", key, got, want)
		}
	}
	// Each list reads back as the transactions that hold its items.
	for _, x := range append([]itemset.Itemset{{0}, {5}, {300}, {70000}, {1}}, goldenPairs...) {
		var want List
		for _, tx := range b.Txs {
			if tx.Contains(x) {
				want = append(want, tx.TID)
			}
		}
		var got List
		var err error
		if len(x) == 1 {
			got, err = s.ItemList(3, x[0])
		} else {
			got, _, err = s.PairList(3, x)
		}
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("%v: the list is %v (%v), want %v", x, got, err, want)
		}
	}
}

func golden(tb testing.TB, name string) []byte {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// decodeSegment decodes a whole segment from the reader's parts: its base,
// its keys, and its lists as one array of TIDs and each list's end in it.
func decodeSegment(data []byte, pairs bool) (base int, keys []uint64, tids, ends []int, err error) {
	d, base, err := openDir(data, pairs)
	if err != nil {
		return 0, nil, nil, nil, err
	}
	keys, spans := make([]uint64, d.left), make([]int, d.left)
	for i := range keys {
		if keys[i], spans[i], err = d.entry(); err != nil {
			return 0, nil, nil, nil, err
		}
	}
	body := d.rest
	if d.end != len(body) {
		return 0, nil, nil, nil, corrupt("lists of %d bytes in %d", d.end, len(body))
	}
	tids, ends = make([]int, 0, len(body)), make([]int, len(keys)) // a list has fewer entries than bytes
	start := 0
	for i, end := range spans {
		if tids, _, err = decodeList(tids, body[start:end], base); err != nil {
			return 0, nil, nil, nil, err
		}
		ends[i], start = len(tids), end
	}
	return base, keys, tids, ends, nil
}

// FuzzDecodeSegment: arbitrary bytes, read as an item or a pair segment, end
// in ErrCorrupt or in a segment that encodes back to exactly those bytes,
// never in a panic, and never in an allocation out of proportion to the
// input. Stored as block 1's item segment, each list reads back through
// ItemList as decoded, and a read that fails is ErrCorrupt.
func FuzzDecodeSegment(f *testing.F) {
	for _, name := range []string{"item.segment", "pair.segment"} {
		data := golden(f, name)
		f.Add(data, name == "pair.segment")
		f.Add(data[:len(data)-1], name == "pair.segment")
		f.Add(append(data, 1), name == "pair.segment")
	}
	f.Add([]byte{0, 0}, false)
	f.Add([]byte{1, 0, 1, 0}, false)
	f.Add([]byte{1, 0, 0x80, 0x80, 0x80, 0x80, 0x10, 1, 1}, true)
	f.Fuzz(func(t *testing.T, data []byte, pairs bool) {
		var base int
		var keys []uint64
		var tids, ends []int
		var err error
		allocbound.Check(t, len(data), func() { base, keys, tids, ends, err = decodeSegment(data, pairs) })
		if err != nil {
			if !errors.Is(err, diskio.ErrCorrupt) {
				t.Fatalf("untyped decode error: %v", err)
			}
		} else if out := appendSegment(nil, base, keys, tids, ends); !bytes.Equal(out, data) {
			t.Fatalf("decoded segment encodes to different bytes:\n in %x\nout %x", data, out)
		}
		if pairs {
			return
		}
		mem := diskio.NewMemStore()
		if err := mem.Put(itemKey(1), data); err != nil {
			t.Fatal(err)
		}
		s, start := NewStore(mem), 0
		for i, key := range keys {
			if l, err := s.ItemList(1, itemset.Item(key)); err != nil || !slices.Equal(l, tids[start:ends[i]]) {
				t.Fatalf("ItemList(%d) = %v, %v; decoded %v", key, l, err, tids[start:ends[i]])
			}
			start = ends[i]
		}
		if _, err := s.ItemList(1, 7); err != nil && !errors.Is(err, diskio.ErrCorrupt) {
			t.Fatalf("untyped read error: %v", err)
		}
	})
}

// TestOldLayoutRefused: on mem: and kvfile:, a block whose lists are stored
// one key per item, the layout before segments, is refused with
// ErrOldLayout, and a block never materialized with ErrMissingBlock, by
// every read; neither reads as empty lists.
func TestOldLayoutRefused(t *testing.T) {
	for _, url := range []string{"mem:", "kvfile:" + filepath.Join(t.TempDir(), "store.kv")} {
		t.Run(url[:3], func(t *testing.T) {
			store, err := diskio.Open(url)
			if err != nil {
				t.Fatal(err)
			}
			defer diskio.CloseStore(store)
			// Block 1 as the old layout stored it, one count-prefixed list per item.
			for key, list := range map[string][]int{"tid/00000001/i1": {0, 1}, "tid/00000001/i2": {1}} {
				if err := store.Put(key, diskio.AppendSortedInts(nil, list)); err != nil {
					t.Fatal(err)
				}
			}
			s := NewStore(store)
			if err := s.Materialize(makeBlock(2, 2, [][]itemset.Item{{1, 2}, {1}})); err != nil {
				t.Fatal(err)
			}
			sets := []itemset.Itemset{{1, 2}}
			if got, err := s.CountECUT(sets, []blockseq.ID{2}); err != nil || got[0] != 1 {
				t.Fatalf("block 2 alone counts %v, %v; want [1]", got, err)
			}
			for id, want := range map[blockseq.ID]error{1: ErrOldLayout, 3: ErrMissingBlock} {
				ids := []blockseq.ID{2, id}
				if _, err := s.CountECUT(sets, ids); !errors.Is(err, want) {
					t.Errorf("CountECUT over block %d: %v, want %v", id, err, want)
				}
				if _, err := s.CountECUTPlus(sets, ids); !errors.Is(err, want) {
					t.Errorf("CountECUTPlus over block %d: %v, want %v", id, err, want)
				}
				if _, err := s.ItemList(id, 1); !errors.Is(err, want) {
					t.Errorf("ItemList of block %d: %v, want %v", id, err, want)
				}
			}
		})
	}
}
