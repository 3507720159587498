package demon

// The cross-strategy differential harness: the same Quest-generated block
// stream goes through every counting strategy at several worker counts, and
// every miner must report exactly the lattice an independent from-scratch
// Apriori run computes — frequent itemsets, negative border, and supports,
// at every block. Strategies differ in what they read (full scans,
// TID-lists, pair TID-lists), so agreement here pins the BORDERS maintenance
// through each of them.

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"github.com/demon-mining/demon/internal/borders"
	"github.com/demon-mining/demon/internal/itemset"
	"github.com/demon-mining/demon/internal/quest"
)

// questBlockRows draws numBlocks deterministic Quest blocks of blockSize
// transactions each, as AddBlock row slices.
func questBlockRows(t *testing.T, seed int64, numBlocks, blockSize int) [][][]Item {
	t.Helper()
	gen, err := quest.New(quest.Config{
		NumTx:         numBlocks * blockSize,
		AvgTxLen:      6,
		NumItems:      40,
		NumPatterns:   20,
		AvgPatternLen: 3,
		Seed:          seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	blocks := make([][][]Item, numBlocks)
	for b := range blocks {
		blk := gen.Block(BlockID(b+1), blockSize)
		rows := make([][]Item, len(blk.Txs))
		for i, tx := range blk.Txs {
			rows[i] = append([]Item(nil), tx.Items...)
		}
		blocks[b] = rows
	}
	return blocks
}

// assertLatticeIdentical requires exact agreement on N, the frequent set,
// the negative border, and every support count.
func assertLatticeIdentical(t *testing.T, label string, got, want *Lattice) {
	t.Helper()
	if got.N != want.N {
		t.Fatalf("%s: N = %d, want %d", label, got.N, want.N)
	}
	if len(got.Frequent) != len(want.Frequent) {
		t.Fatalf("%s: |L| = %d, want %d", label, len(got.Frequent), len(want.Frequent))
	}
	for k, c := range want.Frequent {
		if gc, ok := got.Frequent[k]; !ok || gc != c {
			t.Fatalf("%s: frequent count(%v) = %d (present %v), want %d", label, k.Itemset(), gc, ok, c)
		}
	}
	if len(got.Border) != len(want.Border) {
		t.Fatalf("%s: |NB⁻| = %d, want %d", label, len(got.Border), len(want.Border))
	}
	for k, c := range want.Border {
		if gc, ok := got.Border[k]; !ok || gc != c {
			t.Fatalf("%s: border count(%v) = %d (present %v), want %d", label, k.Itemset(), gc, ok, c)
		}
	}
}

// assertModelSound requires a BORDERS model to be one its codec accepts back
// — DecodeModel validates the whole family: order, subset closure,
// thresholds — and to come back as the same bytes. What this cannot see from
// outside package borders: a detection vector left non-zero between steps, a
// class left fresh, a stale frequent-node list. That structural check
// (borders.CheckIndex, test-only) runs after every step of borders' own
// tests, the sharded-detection and concurrent-GEMM-slot paths included; here
// such a fault shows only through its effect — the next block's comparison
// against the Apriori oracle.
func assertModelSound(t *testing.T, label string, m *borders.Model) {
	t.Helper()
	enc := m.Encode()
	dec, err := borders.DecodeModel(enc)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if !bytes.Equal(dec.Encode(), enc) {
		t.Fatalf("%s: encode → decode → encode changed the bytes", label)
	}
}

// TestDifferentialStrategiesAndWorkers runs the three counting strategies,
// each at worker counts {1, 3, GOMAXPROCS} — Workers has no effect on the
// unrestricted-window miner, and this pins that — against the Apriori
// oracle after every block.
func TestDifferentialStrategiesAndWorkers(t *testing.T) {
	const (
		minsup    = 0.03
		numBlocks = 4
		blockSize = 250
	)
	blocks := questBlockRows(t, 7, numBlocks, blockSize)
	workerCounts := []int{1, 3, runtime.GOMAXPROCS(0)}
	strategies := []CountingStrategy{PTScan, ECUT, ECUTPlus}

	type entry struct {
		label string
		miner *ItemsetMiner
	}
	var miners []entry
	for _, s := range strategies {
		for _, w := range workerCounts {
			m, err := NewItemsetMiner(ItemsetMinerConfig{
				MinSupport: minsup,
				Strategy:   s,
				Workers:    w,
			})
			if err != nil {
				t.Fatal(err)
			}
			miners = append(miners, entry{fmt.Sprintf("%s/workers=%d", s, w), m})
		}
	}

	for b, rows := range blocks {
		oracle := aprioriRef(t, blocks[:b+1], minsup)
		for _, e := range miners {
			if _, err := e.miner.AddBlock(rows); err != nil {
				t.Fatalf("%s: block %d: %v", e.label, b+1, err)
			}
			assertLatticeIdentical(t, fmt.Sprintf("%s after block %d", e.label, b+1),
				e.miner.Lattice(), oracle)
			assertModelSound(t, fmt.Sprintf("%s after block %d", e.label, b+1), e.miner.model)
		}
	}
}

// TestDifferentialDeleteAndRetarget extends the harness past pure ingestion:
// after the stream, every miner deletes its oldest block and lowers the
// threshold, and must still agree with the oracle over the remaining
// blocks.
func TestDifferentialDeleteAndRetarget(t *testing.T) {
	const (
		minsup    = 0.05
		numBlocks = 3
		blockSize = 200
	)
	blocks := questBlockRows(t, 11, numBlocks, blockSize)
	for _, s := range []CountingStrategy{PTScan, ECUT, ECUTPlus} {
		for _, w := range []int{1, 3} {
			label := fmt.Sprintf("%s/workers=%d", s, w)
			m, err := NewItemsetMiner(ItemsetMinerConfig{MinSupport: minsup, Strategy: s, Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			for _, rows := range blocks {
				if _, err := m.AddBlock(rows); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}
			if _, err := m.DeleteOldestBlock(); err != nil {
				t.Fatalf("%s: delete: %v", label, err)
			}
			assertLatticeIdentical(t, label+" after delete",
				m.Lattice(), aprioriRef(t, blocks[1:], minsup))
			assertModelSound(t, label+" after delete", m.model)
			if _, err := m.ChangeMinSupport(minsup / 2); err != nil {
				t.Fatalf("%s: retarget: %v", label, err)
			}
			assertLatticeIdentical(t, label+" after retarget",
				m.Lattice(), aprioriRef(t, blocks[1:], minsup/2))
			assertModelSound(t, label+" after retarget", m.model)
		}
	}
}

// fuzzTxs decodes fuzz bytes into transactions: each byte contributes an
// item in a 16-item universe, zero bytes end a transaction.
func fuzzTxs(data []byte) []itemset.Transaction {
	var txs []itemset.Transaction
	var cur []Item
	flush := func() {
		if len(cur) > 0 {
			txs = append(txs, itemset.Transaction{TID: len(txs), Items: itemset.NewItemset(cur...)})
			cur = nil
		}
	}
	for _, b := range data {
		if b == 0 {
			flush()
			continue
		}
		cur = append(cur, Item(b%16))
	}
	flush()
	return txs
}

// FuzzDifferentialCount feeds arbitrary transaction encodings through the
// prefix-tree counter and requires PrefixCount's positional counts to equal
// the tree's own keyed counts.
func FuzzDifferentialCount(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0, 2, 3, 4, 0, 1, 3, 0, 5})
	f.Add([]byte{7, 7, 7, 0, 0, 1})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		txs := fuzzTxs(data)
		// Candidates: every 1-itemset of the universe plus every pair and
		// triple of the first transaction's items.
		var cands []itemset.Itemset
		for i := 0; i < 16; i++ {
			cands = append(cands, itemset.NewItemset(Item(i)))
		}
		if len(txs) > 0 {
			first := txs[0].Items
			for i := 0; i < len(first); i++ {
				for j := i + 1; j < len(first); j++ {
					cands = append(cands, itemset.NewItemset(first[i], first[j]))
					for k := j + 1; k < len(first); k++ {
						cands = append(cands, itemset.NewItemset(first[i], first[j], first[k]))
					}
				}
			}
		}
		itemset.SortItemsets(cands)

		serial := itemset.NewPrefixTree(cands)
		for _, tx := range txs {
			serial.CountTx(tx)
		}
		want := serial.Counts()

		got := itemset.PrefixCount(cands, txs)
		for i, c := range cands {
			if got[i] != want[c.Key()] {
				t.Fatalf("count(%v) = %d, want %d", c, got[i], want[c.Key()])
			}
		}
	})
}
