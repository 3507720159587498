package itemset

import (
	"math/rand"
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
