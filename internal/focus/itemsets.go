package focus

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/demon-mining/demon/internal/itemset"
	"github.com/demon-mining/demon/internal/obs"
)

// SignificanceMode selects how a deviation's p-value is computed.
type SignificanceMode int

const (
	// Parametric approximates the null distribution with a chi-square over
	// per-region two-proportion terms. Fast; the default for pattern
	// detection, which compares every pair of blocks.
	Parametric SignificanceMode = iota
	// Bootstrap estimates the p-value by pooling both blocks and
	// recomputing the deviation over random re-splits, the procedure the
	// FOCUS paper qualifies deviations with. Slower but assumption-free.
	Bootstrap
)

// ItemsetDiffer instantiates FOCUS with frequent itemset models: the
// structural component of a block's model is its set of frequent itemsets,
// the greatest common refinement of two models is the union of their
// itemsets, and the measure of a region (itemset) is its support in the
// block. Each block is mined once, by Mine; computing a deviation between two
// mined models takes at most one scan of each block, to count the other
// model's itemsets.
type ItemsetDiffer struct {
	// MinSupport is the threshold κ the per-block models are mined at.
	MinSupport float64
	// Mode selects the significance computation (default Parametric).
	Mode SignificanceMode
	// Resamples is the number of bootstrap re-splits (default 100).
	Resamples int
	// Seed drives the bootstrap resampling.
	Seed int64
}

// ItemsetModel is a block's model as the ItemsetDiffer compares it: the
// block itself, which a deviation scans for the other model's itemsets, and
// its frequent itemsets with their support counts. The negative border is
// not kept.
type ItemsetModel struct {
	Block    *itemset.TxBlock
	Frequent map[itemset.Key]int
}

// Mine builds the model of a non-empty block: its frequent itemsets at
// MinSupport.
func (d ItemsetDiffer) Mine(blk *itemset.TxBlock) (*ItemsetModel, error) {
	span := obs.Default().Timer("focus.mine.ns").Start()
	defer span.End()
	if d.MinSupport <= 0 || d.MinSupport >= 1 {
		return nil, fmt.Errorf("focus: minimum support %v outside (0, 1)", d.MinSupport)
	}
	if blk.Len() == 0 {
		return nil, fmt.Errorf("focus: cannot model empty block %d", blk.ID)
	}
	lat, err := itemset.Apriori(itemset.SliceSource(blk.Txs), nil, d.MinSupport)
	if err != nil {
		return nil, err
	}
	return &ItemsetModel{Block: blk, Frequent: lat.Frequent}, nil
}

// Deviation implements Differ[*ItemsetModel].
func (d ItemsetDiffer) Deviation(a, b *ItemsetModel) (Deviation, error) {
	span := obs.Default().Timer("focus.deviation.ns").Start()
	defer span.End()
	gcr := unionFrequent(a, b)
	if len(gcr) == 0 {
		// Neither block has any frequent itemset: identical (vacuous) models.
		return Deviation{Score: 0, PValue: 1, Regions: 0}, nil
	}

	ca, cb := countsOver(gcr, a), countsOver(gcr, b)
	na, nb := a.Block.Len(), b.Block.Len()
	score := deviationScore(ca, cb, na, nb)
	var p float64
	var err error
	switch d.Mode {
	case Parametric:
		p, err = parametricPValue(ca, cb, na, nb)
	case Bootstrap:
		p, err = d.bootstrapPValue(gcr, a.Block, b.Block, score)
	default:
		err = fmt.Errorf("focus: unknown significance mode %d", d.Mode)
	}
	if err != nil {
		return Deviation{}, err
	}
	obs.Default().Histogram("focus.deviation.regions").Observe(int64(len(gcr)))
	return Deviation{Score: score, PValue: p, Regions: len(gcr)}, nil
}

// unionFrequent returns the sorted union of the two models' frequent
// itemsets — the greatest common refinement of the two structural
// components.
func unionFrequent(a, b *ItemsetModel) []itemset.Itemset {
	out := make([]itemset.Itemset, 0, len(a.Frequent)+len(b.Frequent))
	for k := range a.Frequent {
		out = append(out, k.Itemset())
	}
	for k := range b.Frequent {
		if _, ok := a.Frequent[k]; !ok {
			out = append(out, k.Itemset())
		}
	}
	itemset.SortItemsets(out)
	return out
}

// countsOver returns the support count of every GCR itemset in the model's
// block, by position in gcr, reusing the model's counts where it has them
// and scanning the block once for the rest.
func countsOver(gcr []itemset.Itemset, m *ItemsetModel) []int {
	out := make([]int, len(gcr))
	var missing []itemset.Itemset
	var at []int // at[j] is the position in gcr of missing[j]
	for i, x := range gcr {
		if c, ok := m.Frequent[x.Key()]; ok {
			out[i] = c
		} else {
			missing, at = append(missing, x), append(at, i)
		}
	}
	if len(missing) > 0 {
		for j, c := range itemset.PrefixCount(missing, m.Block.Txs) {
			out[at[j]] = c
		}
	}
	return out
}

// deviationScore is the absolute deviation: the mean absolute support
// difference over the GCR (difference function f = |·|, aggregation g = Σ,
// scaled by the region count). ca and cb hold each region's count in the two
// blocks.
func deviationScore(ca, cb []int, na, nb int) float64 {
	var sum float64
	for i := range ca {
		sum += math.Abs(float64(ca[i])/float64(na) - float64(cb[i])/float64(nb))
	}
	return sum / float64(len(ca))
}

// parametricPValue treats each region as a two-proportion comparison,
// converts the most extreme region's z² into a per-region p-value, and
// applies a Šidák combination over the number of informative regions:
// p = 1 − (1 − p_min)^m. Itemset regions overlap heavily (an itemset and
// its subsets count largely the same transactions), so the positively
// dependent per-region tests make this combination conservative — two blocks
// are declared dissimilar only when at least one region's supports differ
// far beyond sampling noise, which is the behaviour the DEMON pattern
// experiments rely on. Regions with pooled support 0 or 1 carry no
// information and are skipped.
func parametricPValue(ca, cb []int, na, nb int) (float64, error) {
	maxZ2 := 0.0
	m := 0
	fa, fb := float64(na), float64(nb)
	for k := range ca {
		pooled := float64(ca[k]+cb[k]) / (fa + fb)
		v := pooled * (1 - pooled) * (1/fa + 1/fb)
		if v <= 0 {
			continue
		}
		diff := float64(ca[k])/fa - float64(cb[k])/fb
		if z2 := diff * diff / v; z2 > maxZ2 {
			maxZ2 = z2
		}
		m++
	}
	if m == 0 {
		return 1, nil
	}
	pMin, err := ChiSquareSurvival(maxZ2, 1)
	if err != nil {
		return 0, err
	}
	// Šidák: probability that the minimum of m (idealized independent)
	// per-region p-values is at most pMin.
	p := 1 - math.Pow(1-pMin, float64(m))
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return p, nil
}

// bootstrapPValue pools the two blocks and estimates P(deviation ≥ observed)
// under the same-process null by recomputing the GCR measures over random
// re-splits of the pool.
func (d ItemsetDiffer) bootstrapPValue(gcr []itemset.Itemset, a, b *itemset.TxBlock, observed float64) (float64, error) {
	resamples := d.Resamples
	if resamples <= 0 {
		resamples = 100
	}
	pool := make([]itemset.Transaction, 0, a.Len()+b.Len())
	pool = append(pool, a.Txs...)
	pool = append(pool, b.Txs...)
	rng := rand.New(rand.NewSource(d.Seed))
	exceed := 0
	for r := 0; r < resamples; r++ {
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		ca := itemset.PrefixCount(gcr, pool[:a.Len()])
		cb := itemset.PrefixCount(gcr, pool[a.Len():])
		if deviationScore(ca, cb, a.Len(), b.Len()) >= observed-1e-12 {
			exceed++
		}
	}
	// Add-one smoothing keeps the estimate away from an impossible zero.
	return (float64(exceed) + 1) / (float64(resamples) + 1), nil
}

// TopDifferences reports the itemsets with the largest absolute support
// difference between two mined blocks — the interpretable part of the FOCUS
// deviation, which CompareTransactionBlocks returns to explain why two
// blocks were found dissimilar. It returns at most n entries, largest
// difference first; a negative n returns them all.
func (d ItemsetDiffer) TopDifferences(a, b *ItemsetModel, n int) []SupportDiff {
	gcr := unionFrequent(a, b)
	ca, cb := countsOver(gcr, a), countsOver(gcr, b)
	diffs := make([]SupportDiff, 0, len(gcr))
	for i, x := range gcr {
		diffs = append(diffs, SupportDiff{
			Itemset:  x,
			SupportA: float64(ca[i]) / float64(a.Block.Len()),
			SupportB: float64(cb[i]) / float64(b.Block.Len()),
		})
	}
	sort.Slice(diffs, func(i, j int) bool {
		di := math.Abs(diffs[i].SupportA - diffs[i].SupportB)
		dj := math.Abs(diffs[j].SupportA - diffs[j].SupportB)
		if di != dj {
			return di > dj
		}
		return diffs[i].Itemset.Key() < diffs[j].Itemset.Key()
	})
	if n >= 0 && len(diffs) > n {
		diffs = diffs[:n]
	}
	return diffs
}

// SupportDiff is one region of the common structural component with its
// measures in both blocks.
type SupportDiff struct {
	Itemset  itemset.Itemset
	SupportA float64
	SupportB float64
}
