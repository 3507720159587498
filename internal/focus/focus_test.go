package focus

import (
	"math"
	"testing"

	"github.com/demon-mining/demon/internal/blockseq"
	"github.com/demon-mining/demon/internal/itemset"
	"github.com/demon-mining/demon/internal/quest"
)

// questBlock draws a block from a quest generator with the given seed.
func questBlock(t *testing.T, seed int64, id blockseq.ID, n int) *itemset.TxBlock {
	t.Helper()
	g, err := quest.New(quest.Config{
		NumTx: n, AvgTxLen: 8, NumItems: 50, NumPatterns: 10, AvgPatternLen: 3, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g.Block(id, n)
}

// shiftedBlock remaps every item by +delta, producing a block with disjoint
// frequent itemsets.
func shiftedBlock(b *itemset.TxBlock, delta itemset.Item) *itemset.TxBlock {
	rows := make([][]itemset.Item, b.Len())
	for i, tx := range b.Txs {
		rows[i] = make([]itemset.Item, len(tx.Items))
		for j, it := range tx.Items {
			rows[i][j] = it + delta
		}
	}
	return itemset.NewTxBlock(b.ID+1, b.FirstTID+b.Len(), rows)
}

func TestItemsetDifferSameProcessSimilar(t *testing.T) {
	// Two blocks from the same generator stream: deviation small, p large.
	g, err := quest.New(quest.Config{
		NumTx: 2000, AvgTxLen: 8, NumItems: 50, NumPatterns: 10, AvgPatternLen: 3, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := g.Block(1, 1000)
	b := g.Block(2, 1000)
	d := ItemsetDiffer{MinSupport: 0.05}
	dev, err := d.Deviation(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if dev.PValue < 0.01 {
		t.Fatalf("same-process blocks found dissimilar: %+v", dev)
	}
	if dev.Score > 0.05 {
		t.Fatalf("same-process deviation score %v too large", dev.Score)
	}
}

func TestItemsetDifferDifferentProcessDissimilar(t *testing.T) {
	a := questBlock(t, 4, 1, 1000)
	b := shiftedBlock(a, 50) // disjoint item universe: maximally different
	d := ItemsetDiffer{MinSupport: 0.05}
	dev, err := d.Deviation(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if dev.PValue >= 0.01 {
		t.Fatalf("disjoint blocks found similar: %+v", dev)
	}
	if dev.PValue > 1e-6 {
		t.Fatalf("disjoint blocks p = %v, want tiny", dev.PValue)
	}
	if dev.Score <= 0 {
		t.Fatalf("disjoint blocks score = %v", dev.Score)
	}
}

func TestItemsetDifferIdenticalBlocks(t *testing.T) {
	a := questBlock(t, 5, 1, 500)
	d := ItemsetDiffer{MinSupport: 0.05}
	dev, err := d.Deviation(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if dev.Score != 0 {
		t.Fatalf("self-deviation score = %v", dev.Score)
	}
	if dev.PValue < 0.999 {
		t.Fatalf("self-deviation p = %v", dev.PValue)
	}
}

func TestItemsetDifferSymmetric(t *testing.T) {
	a := questBlock(t, 6, 1, 600)
	b := questBlock(t, 7, 2, 800)
	d := ItemsetDiffer{MinSupport: 0.05}
	ab, err := d.Deviation(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := d.Deviation(b, a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ab.Score-ba.Score) > 1e-12 {
		t.Fatalf("score asymmetric: %v vs %v", ab.Score, ba.Score)
	}
	if math.Abs(ab.PValue-ba.PValue) > 1e-9 {
		t.Fatalf("p-value asymmetric: %v vs %v", ab.PValue, ba.PValue)
	}
}

func TestItemsetDifferBootstrapAgreesDirectionally(t *testing.T) {
	g, err := quest.New(quest.Config{
		NumTx: 1200, AvgTxLen: 6, NumItems: 30, NumPatterns: 8, AvgPatternLen: 3, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	same1, same2 := g.Block(1, 600), g.Block(2, 600)
	diff := shiftedBlock(same1, 30)

	d := ItemsetDiffer{MinSupport: 0.05, Mode: Bootstrap, Resamples: 60, Seed: 1}
	devSame, err := d.Deviation(same1, same2)
	if err != nil {
		t.Fatal(err)
	}
	devDiff, err := d.Deviation(same1, diff)
	if err != nil {
		t.Fatal(err)
	}
	if devSame.PValue <= devDiff.PValue {
		t.Fatalf("bootstrap: same-process p %v <= different-process p %v",
			devSame.PValue, devDiff.PValue)
	}
	if devDiff.PValue > 0.05 {
		t.Fatalf("bootstrap different-process p = %v, want small", devDiff.PValue)
	}
}

func TestItemsetDifferValidation(t *testing.T) {
	a := questBlock(t, 9, 1, 100)
	if _, err := (ItemsetDiffer{MinSupport: 0}).Deviation(a, a); err == nil {
		t.Error("accepted κ = 0")
	}
	empty := itemset.NewTxBlock(2, 0, nil)
	if _, err := (ItemsetDiffer{MinSupport: 0.1}).Deviation(a, empty); err == nil {
		t.Error("accepted empty block")
	}
}

func TestTopDifferences(t *testing.T) {
	a := questBlock(t, 10, 1, 800)
	b := shiftedBlock(a, 50)
	d := ItemsetDiffer{MinSupport: 0.05}
	diffs, err := d.TopDifferences(a, b, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) == 0 || len(diffs) > 5 {
		t.Fatalf("TopDifferences returned %d entries", len(diffs))
	}
	for i := 1; i < len(diffs); i++ {
		di := math.Abs(diffs[i-1].SupportA - diffs[i-1].SupportB)
		dj := math.Abs(diffs[i].SupportA - diffs[i].SupportB)
		if di < dj {
			t.Fatalf("TopDifferences not sorted: %v < %v at %d", di, dj, i)
		}
	}
	// Disjoint universes: every region is fully one-sided.
	if diffs[0].SupportA > 0 && diffs[0].SupportB > 0 {
		t.Fatalf("top difference %+v should be one-sided", diffs[0])
	}
}

func TestItemsetDifferEmptyGCR(t *testing.T) {
	// At a very high threshold with diverse transactions, neither block has
	// any frequent itemset: identical (vacuous) models, deviation zero.
	rows := make([][]itemset.Item, 50)
	for i := range rows {
		rows[i] = []itemset.Item{itemset.Item(i)}
	}
	a := itemset.NewTxBlock(1, 0, rows)
	b := itemset.NewTxBlock(2, 50, rows)
	d := ItemsetDiffer{MinSupport: 0.9}
	dev, err := d.Deviation(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if dev.Score != 0 || dev.PValue != 1 || dev.Regions != 0 {
		t.Fatalf("empty-GCR deviation = %+v", dev)
	}
}

func TestItemsetDifferUnknownMode(t *testing.T) {
	a := questBlock(t, 14, 1, 100)
	d := ItemsetDiffer{MinSupport: 0.1, Mode: SignificanceMode(9)}
	if _, err := d.Deviation(a, a); err == nil {
		t.Fatal("accepted unknown significance mode")
	}
}

func TestTopDifferencesUnlimited(t *testing.T) {
	a := questBlock(t, 16, 1, 400)
	b := questBlock(t, 17, 2, 400)
	d := ItemsetDiffer{MinSupport: 0.05}
	all, err := d.TopDifferences(a, b, -1)
	if err != nil {
		t.Fatal(err)
	}
	limited, err := d.TopDifferences(a, b, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(limited) > 2 || len(all) < len(limited) {
		t.Fatalf("lengths: all %d, limited %d", len(all), len(limited))
	}
}
