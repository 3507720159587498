package itemset

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/demon-mining/demon/internal/blockseq"
	"github.com/demon-mining/demon/internal/diskio"
)

func TestTxBlockEncodeDecode(t *testing.T) {
	b := NewTxBlock(3, 100, [][]Item{
		{5, 1, 3},
		{},
		{2},
	})
	if b.Txs[0].TID != 100 || b.Txs[2].TID != 102 {
		t.Fatalf("TIDs not consecutive: %v", b.Txs)
	}
	dec, err := DecodeTxBlock(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dec.ID != 3 || dec.FirstTID != 100 || dec.Len() != 3 {
		t.Fatalf("decoded header %+v", dec)
	}
	if !dec.Txs[0].Items.Equal(Itemset{1, 3, 5}) {
		t.Fatalf("decoded tx 0 = %v", dec.Txs[0].Items)
	}
	if len(dec.Txs[1].Items) != 0 {
		t.Fatalf("decoded empty tx = %v", dec.Txs[1].Items)
	}
}

func TestTxBlockDecodeCorrupt(t *testing.T) {
	b := NewTxBlock(1, 0, [][]Item{{1, 2}, {3}})
	enc := b.Encode()
	if _, err := DecodeTxBlock(enc[:len(enc)-1]); err == nil {
		t.Fatal("DecodeTxBlock accepted truncated data")
	}
	if _, err := DecodeTxBlock(nil); err == nil {
		t.Fatal("DecodeTxBlock accepted empty data")
	}
}

func TestTxBlockRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		n := rng.Intn(40)
		rows := make([][]Item, n)
		for i := range rows {
			m := rng.Intn(10)
			rows[i] = make([]Item, m)
			for j := range rows[i] {
				rows[i][j] = Item(rng.Intn(1000))
			}
		}
		b := NewTxBlock(blockseq.ID(trial+1), trial*1000, rows)
		dec, err := DecodeTxBlock(b.Encode())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if dec.Len() != b.Len() {
			t.Fatalf("trial %d: len %d != %d", trial, dec.Len(), b.Len())
		}
		for i := range b.Txs {
			if dec.Txs[i].TID != b.Txs[i].TID || !dec.Txs[i].Items.Equal(b.Txs[i].Items) {
				t.Fatalf("trial %d tx %d mismatch", trial, i)
			}
		}
	}
}

func TestBlockStore(t *testing.T) {
	bs := NewBlockStore(diskio.NewMemStore())
	b1 := NewTxBlock(1, 0, [][]Item{{1, 2}, {2, 3}})
	b2 := NewTxBlock(2, 2, [][]Item{{1}})
	if err := bs.Put(b1); err != nil {
		t.Fatal(err)
	}
	if err := bs.Put(b2); err != nil {
		t.Fatal(err)
	}

	got, err := bs.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("block 1 len = %d", got.Len())
	}

	n, err := bs.NumTx(2)
	if err != nil || n != 1 {
		t.Fatalf("NumTx(2) = %d, %v", n, err)
	}

	var tids []int
	err = bs.ForEachTx([]blockseq.ID{1, 2}, func(tx Transaction) error {
		tids = append(tids, tx.TID)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tids) != 3 || tids[0] != 0 || tids[2] != 2 {
		t.Fatalf("ForEachTx TIDs = %v", tids)
	}

	if _, err := bs.Get(99); err == nil {
		t.Fatal("Get of missing block succeeded")
	}
}

func TestBlockStoreNumTxUncached(t *testing.T) {
	store := diskio.NewMemStore()
	bs := NewBlockStore(store)
	if err := bs.Put(NewTxBlock(1, 0, [][]Item{{1}, {2}, {3}})); err != nil {
		t.Fatal(err)
	}
	// A fresh BlockStore over the same underlying store must recover counts
	// from disk.
	bs2 := NewBlockStore(store)
	n, err := bs2.NumTx(1)
	if err != nil || n != 3 {
		t.Fatalf("NumTx = %d, %v; want 3", n, err)
	}
}

// TestBlockStoreNumTxReadsHeaderOnly: the count of an uncached block comes
// from the three header uvarints, so a block whose body is cut short still
// answers it — and still fails to load.
func TestBlockStoreNumTxReadsHeaderOnly(t *testing.T) {
	store := diskio.NewMemStore()
	enc := NewTxBlock(7, 40, [][]Item{{1, 2, 3}, {4}, {5, 6}}).Encode()
	if err := store.Put(blockKey(7), enc[:len(enc)-2]); err != nil {
		t.Fatal(err)
	}
	bs := NewBlockStore(store)
	if n, err := bs.NumTx(7); err != nil || n != 3 {
		t.Fatalf("NumTx of a truncated block = %d, %v; want 3", n, err)
	}
	if _, err := bs.Get(7); !errors.Is(err, diskio.ErrCorrupt) {
		t.Fatalf("Get of a truncated block = %v, want ErrCorrupt", err)
	}
	if err := store.Put(blockKey(8), enc[:2]); err != nil { // the header itself cut short
		t.Fatal(err)
	}
	if _, err := bs.NumTx(8); !errors.Is(err, diskio.ErrCorrupt) {
		t.Fatalf("NumTx of a truncated header = %v, want ErrCorrupt", err)
	}
}

// TestTxBlockEncodeLayout pins the stored bytes to the layout they have
// always had: three header uvarints, then diskio.AppendSortedInts per row.
func TestTxBlockEncodeLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rows := append(randomRows(rng, 200, 30, 1<<20), []Item{math.MaxInt32, 0, 127, 128}, []Item{math.MaxInt32})
	b := NewTxBlock(12, 3456, rows)
	want := diskio.AppendUvarint(nil, 12)
	want = diskio.AppendUvarint(want, 3456)
	want = diskio.AppendUvarint(want, uint64(len(rows)))
	for _, tx := range b.Txs {
		ints := make([]int, len(tx.Items))
		for i, it := range tx.Items {
			ints[i] = int(it)
		}
		want = diskio.AppendSortedInts(want, ints)
	}
	if got := b.Encode(); !bytes.Equal(got, want) {
		t.Fatalf("Encode changed the stored layout: %d bytes, want %d", len(got), len(want))
	}
	dec, err := DecodeTxBlock(want) // gaps of one to five bytes
	if err != nil {
		t.Fatal(err)
	}
	for i, tx := range b.Txs {
		if !dec.Txs[i].Items.Equal(tx.Items) {
			t.Fatalf("tx %d decoded to %v, want %v", i, dec.Txs[i].Items, tx.Items)
		}
	}
}

// TestDecodeTxBlockImplausibleCounts: a count the bytes cannot hold is
// corruption, found before anything is allocated for it.
func TestDecodeTxBlockImplausibleCounts(t *testing.T) {
	header := diskio.AppendUvarint(diskio.AppendUvarint(nil, 1), 0)
	for name, data := range map[string][]byte{
		"tx count":   diskio.AppendUvarint(header[:len(header):len(header)], 1<<40),
		"row length": diskio.AppendUvarint(diskio.AppendUvarint(header[:len(header):len(header)], 1), 1<<40),
		"cut in row": append(diskio.AppendUvarint(header[:len(header):len(header)], 1), 3, 1, 0x80),
	} {
		if _, err := DecodeTxBlock(data); !errors.Is(err, diskio.ErrCorrupt) {
			t.Errorf("%s: DecodeTxBlock = %v, want ErrCorrupt", name, err)
		}
	}
}

func randomRows(rng *rand.Rand, n, maxLen, universe int) [][]Item {
	rows := make([][]Item, n)
	for i := range rows {
		rows[i] = make([]Item, rng.Intn(maxLen+1))
		for j := range rows[i] {
			rows[i][j] = Item(rng.Intn(universe))
		}
	}
	return rows
}

// TestTxBlockSlabOwnership is the slab rule as a property: NewTxBlock
// canonicalizes its own copy and leaves the caller's rows as they were;
// rows of a built or decoded block share one backing array but are capped,
// so growing one cannot write into the next.
func TestTxBlockSlabOwnership(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		rows := randomRows(rng, 1+rng.Intn(30), 8, 12) // small universe: unsorted, with duplicates
		before := make([][]Item, len(rows))
		for i, r := range rows {
			before[i] = slices.Clone(r)
		}
		b := NewTxBlock(1, 0, rows)
		for i, r := range rows {
			if !slices.Equal(r, before[i]) {
				t.Fatalf("trial %d: NewTxBlock rewrote the caller's row %d: %v -> %v", trial, i, before[i], r)
			}
			if want := NewItemset(r...); !b.Txs[i].Items.Equal(want) {
				t.Fatalf("trial %d: tx %d = %v, want %v", trial, i, b.Txs[i].Items, want)
			}
		}
		rows[0] = append(rows[0][:0], 99, 98) // the caller's rows are the caller's again
		dec, err := DecodeTxBlock(b.Encode())
		if err != nil {
			t.Fatal(err)
		}
		for _, blk := range []*TxBlock{b, dec} {
			want := make([]Itemset, len(blk.Txs))
			for i, tx := range blk.Txs {
				want[i] = tx.Items.Clone()
			}
			for i := range blk.Txs {
				_ = append(blk.Txs[i].Items, -1)
			}
			for i, tx := range blk.Txs {
				if !tx.Items.Equal(want[i]) {
					t.Fatalf("trial %d: an append to a neighbour overwrote tx %d: %v -> %v", trial, i, want[i], tx.Items)
				}
			}
		}
	}
}

// TestTxBlockAllocs: building and decoding a block allocate its struct, its
// transaction headers and one slab of items — not one slice per row.
func TestTxBlockAllocs(t *testing.T) {
	for _, n := range []int{100, 4000} {
		rows := randomRows(rand.New(rand.NewSource(9)), n, 20, 1000)
		var b *TxBlock
		if got := testing.AllocsPerRun(10, func() { b = NewTxBlock(1, 0, rows) }); got > 4 {
			t.Errorf("NewTxBlock of %d rows: %v allocations, want at most 4", n, got)
		}
		enc := b.Encode()
		if got := testing.AllocsPerRun(10, func() {
			if _, err := DecodeTxBlock(enc); err != nil {
				t.Fatal(err)
			}
		}); got > 4 {
			t.Errorf("DecodeTxBlock of %d rows: %v allocations, want at most 4", n, got)
		}
	}
}

func TestCheckRows(t *testing.T) {
	if err := CheckRows([][]Item{{0, 5}, {}, {1 << 30}}); err != nil {
		t.Fatalf("CheckRows of valid rows = %v", err)
	}
	if err := CheckRows([][]Item{{1}, {3, -5}}); !errors.Is(err, ErrNegativeItem) {
		t.Fatalf("CheckRows of a negative item = %v, want ErrNegativeItem", err)
	}
}

// TestBlockKeyFormat: the key built by hand is the key fmt built.
func TestBlockKeyFormat(t *testing.T) {
	for _, id := range []blockseq.ID{0, 1, 9, 10, 12345678, 99999999, 100000000, 1234567890123} {
		if got, want := blockKey(id), fmt.Sprintf("txblock/%08d", id); got != want {
			t.Errorf("blockKey(%d) = %q, want %q", id, got, want)
		}
	}
}

// benchRows is a block of the gated workloads' shape: 4,000 transactions of
// about ten items out of a thousand, sorted as a generator emits them.
func benchRows() [][]Item {
	rows := randomRows(rand.New(rand.NewSource(1)), 4000, 20, 1000)
	for i, r := range rows {
		rows[i] = NewItemset(r...)
	}
	return rows
}

func BenchmarkNewTxBlock(b *testing.B) {
	rows := benchRows()
	b.ReportAllocs()
	for b.Loop() {
		NewTxBlock(1, 0, rows)
	}
}

func BenchmarkDecodeTxBlock(b *testing.B) {
	enc := NewTxBlock(1, 0, benchRows()).Encode()
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := DecodeTxBlock(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTxBlockEncode(b *testing.B) {
	blk := NewTxBlock(1, 0, benchRows())
	b.ReportAllocs()
	for b.Loop() {
		blk.Encode()
	}
}
