package focus

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/demon-mining/demon/internal/itemset"
	"github.com/demon-mining/demon/internal/obs"
	"github.com/demon-mining/demon/internal/par"
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
// block. Computing the deviation takes at most one scan of each block, to
// count the other model's itemsets.
type ItemsetDiffer struct {
	// MinSupport is the threshold κ the per-block models are mined at.
	MinSupport float64
	// Mode selects the significance computation (default Parametric).
	Mode SignificanceMode
	// Resamples is the number of bootstrap re-splits (default 100).
	Resamples int
	// Seed drives the bootstrap resampling.
	Seed int64
	// Workers shards the deviation computation — the two per-block model
	// builds run concurrently and the region counting scans shard over
	// transactions — across worker goroutines: non-positive selects
	// GOMAXPROCS, 1 keeps the computation serial. Results are identical for
	// every worker count; bootstrap resampling stays serial (it threads one
	// RNG).
	Workers int
}

// Deviation implements Differ[*itemset.TxBlock].
func (d ItemsetDiffer) Deviation(a, b *itemset.TxBlock) (Deviation, error) {
	span := obs.Default().Timer("focus.deviation.ns").Start()
	defer span.End()
	if d.MinSupport <= 0 || d.MinSupport >= 1 {
		return Deviation{}, fmt.Errorf("focus: minimum support %v outside (0, 1)", d.MinSupport)
	}
	if a.Len() == 0 || b.Len() == 0 {
		return Deviation{}, fmt.Errorf("focus: cannot compare empty blocks (%d, %d transactions)", a.Len(), b.Len())
	}
	la, lb, err := d.minePair(a, b)
	if err != nil {
		return Deviation{}, err
	}

	gcr := unionFrequent(la, lb)
	if len(gcr) == 0 {
		// Neither block has any frequent itemset: identical (vacuous) models.
		return Deviation{Score: 0, PValue: 1, Regions: 0}, nil
	}

	ca := countsOver(gcr, la, a, d.Workers)
	cb := countsOver(gcr, lb, b, d.Workers)

	score := deviationScore(ca, cb, a.Len(), b.Len())
	var p float64
	switch d.Mode {
	case Parametric:
		p, err = parametricPValue(ca, cb, a.Len(), b.Len())
	case Bootstrap:
		p, err = d.bootstrapPValue(gcr, a, b, score)
	default:
		err = fmt.Errorf("focus: unknown significance mode %d", d.Mode)
	}
	if err != nil {
		return Deviation{}, err
	}
	obs.Default().Histogram("focus.deviation.regions").Observe(int64(len(gcr)))
	return Deviation{Score: score, PValue: p, Regions: len(gcr)}, nil
}

// minePair builds the per-block frequent-itemset models, concurrently when
// the differ has more than one worker; errors report the first block's
// failure first, deterministically.
func (d ItemsetDiffer) minePair(a, b *itemset.TxBlock) (*itemset.Lattice, *itemset.Lattice, error) {
	blks := [2]*itemset.TxBlock{a, b}
	var lats [2]*itemset.Lattice
	var errs [2]error
	par.Do(2, d.Workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			lats[i], errs[i] = itemset.Apriori(itemset.SliceSource(blks[i].Txs), nil, d.MinSupport)
		}
	})
	if err := par.FirstError(errs[:]); err != nil {
		return nil, nil, err
	}
	return lats[0], lats[1], nil
}

// unionFrequent returns the sorted union of the two models' frequent
// itemsets — the greatest common refinement of the two structural
// components.
func unionFrequent(la, lb *itemset.Lattice) []itemset.Itemset {
	seen := make(map[itemset.Key]bool, len(la.Frequent)+len(lb.Frequent))
	var out []itemset.Itemset
	for k := range la.Frequent {
		if !seen[k] {
			seen[k] = true
			out = append(out, k.Itemset())
		}
	}
	for k := range lb.Frequent {
		if !seen[k] {
			seen[k] = true
			out = append(out, k.Itemset())
		}
	}
	itemset.SortItemsets(out)
	return out
}

// countsOver returns the support count of every GCR itemset in the block, by
// position in gcr, reusing lattice counts where tracked and scanning the
// block once for the rest; the scan shards over transactions across the
// given workers.
func countsOver(gcr []itemset.Itemset, l *itemset.Lattice, blk *itemset.TxBlock, workers int) []int {
	out := make([]int, len(gcr))
	var missing []itemset.Itemset
	var at []int // at[j] is the position in gcr of missing[j]
	for i, x := range gcr {
		k := x.Key()
		if c, ok := l.Frequent[k]; ok {
			out[i] = c
		} else if c, ok := l.Border[k]; ok {
			out[i] = c
		} else {
			missing, at = append(missing, x), append(at, i)
		}
	}
	if len(missing) > 0 {
		for j, c := range itemset.ParallelPrefixCount(missing, blk.Txs, workers) {
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
		ca := itemset.ParallelPrefixCount(gcr, pool[:a.Len()], d.Workers)
		cb := itemset.ParallelPrefixCount(gcr, pool[a.Len():], d.Workers)
		if deviationScore(ca, cb, a.Len(), b.Len()) >= observed-1e-12 {
			exceed++
		}
	}
	// Add-one smoothing keeps the estimate away from an impossible zero.
	return (float64(exceed) + 1) / (float64(resamples) + 1), nil
}

// TopDifferences reports the itemsets with the largest absolute support
// difference between the two blocks — the interpretable part of the FOCUS
// deviation, used by the CLI to explain why two blocks were found
// dissimilar. It returns at most n entries, largest difference first.
func (d ItemsetDiffer) TopDifferences(a, b *itemset.TxBlock, n int) ([]SupportDiff, error) {
	la, lb, err := d.minePair(a, b)
	if err != nil {
		return nil, err
	}
	gcr := unionFrequent(la, lb)
	ca := countsOver(gcr, la, a, d.Workers)
	cb := countsOver(gcr, lb, b, d.Workers)
	diffs := make([]SupportDiff, 0, len(gcr))
	for i, x := range gcr {
		diffs = append(diffs, SupportDiff{
			Itemset:  x,
			SupportA: float64(ca[i]) / float64(a.Len()),
			SupportB: float64(cb[i]) / float64(b.Len()),
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
	return diffs, nil
}

// SupportDiff is one region of the common structural component with its
// measures in both blocks.
type SupportDiff struct {
	Itemset  itemset.Itemset
	SupportA float64
	SupportB float64
}
