package itemset

import (
	"fmt"
	"math"
)

// TxSource streams a dataset of transactions, one full pass per ForEach call.
type TxSource interface {
	ForEach(fn func(tx Transaction) error) error
}

// SliceSource adapts an in-memory transaction slice to TxSource.
type SliceSource []Transaction

// ForEach iterates the slice.
func (s SliceSource) ForEach(fn func(tx Transaction) error) error {
	for _, tx := range s {
		if err := fn(tx); err != nil {
			return err
		}
	}
	return nil
}

// MinCount converts a fractional minimum support κ into the smallest absolute
// count that satisfies σ = count/n ≥ κ.
func MinCount(n int, minsup float64) int {
	if n == 0 {
		return 1
	}
	c := int(math.Ceil(minsup*float64(n) - 1e-9))
	if c < 1 {
		c = 1
	}
	return c
}

// Lattice is a frequent-itemset model: the set of frequent itemsets
// L(D, κ) and the negative border NB⁻(D, κ), both with absolute support
// counts, plus the number of transactions they were counted over. It is the
// model maintained by the BORDERS algorithm and the structural+measure
// component FOCUS reads.
type Lattice struct {
	// N is the number of transactions in the dataset the counts refer to.
	N int
	// MinSupport is the fractional threshold κ.
	MinSupport float64
	// Frequent maps each frequent itemset to its absolute support count.
	Frequent map[Key]int
	// Border maps each negative-border itemset to its absolute support
	// count. By definition these are infrequent itemsets all of whose proper
	// subsets are frequent; infrequent 1-itemsets (and, when the lattice is
	// built over a known universe, never-seen items) are included.
	Border map[Key]int
	// Passes counts full dataset scans performed while building or
	// maintaining the lattice (a cost metric).
	Passes int
}

// NewLattice returns an empty lattice at the given threshold.
func NewLattice(minsup float64) *Lattice {
	return &Lattice{
		MinSupport: minsup,
		Frequent:   make(map[Key]int),
		Border:     make(map[Key]int),
	}
}

// Support returns the fractional support of an itemset if it is tracked
// (frequent or border), with ok=false otherwise.
func (l *Lattice) Support(x Itemset) (float64, bool) {
	k := x.Key()
	if c, ok := l.Frequent[k]; ok {
		return float64(c) / float64(max(l.N, 1)), true
	}
	if c, ok := l.Border[k]; ok {
		return float64(c) / float64(max(l.N, 1)), true
	}
	return 0, false
}

// FrequentSets returns the frequent itemsets in deterministic order.
func (l *Lattice) FrequentSets() []Itemset { return sortedSets(l.Frequent) }

// BorderSets returns the negative-border itemsets in deterministic order.
func (l *Lattice) BorderSets() []Itemset { return sortedSets(l.Border) }

func sortedSets(m map[Key]int) []Itemset {
	out := make([]Itemset, 0, len(m))
	for k := range m {
		out = append(out, k.Itemset())
	}
	SortItemsets(out)
	return out
}

// Clone deep-copies the lattice.
func (l *Lattice) Clone() *Lattice {
	c := &Lattice{
		N:          l.N,
		MinSupport: l.MinSupport,
		Frequent:   make(map[Key]int, len(l.Frequent)),
		Border:     make(map[Key]int, len(l.Border)),
		Passes:     l.Passes,
	}
	for k, v := range l.Frequent {
		c.Frequent[k] = v
	}
	for k, v := range l.Border {
		c.Border[k] = v
	}
	return c
}

// Validate checks the lattice invariants: every frequent itemset meets the
// threshold, every border itemset misses it, every proper subset of a border
// itemset is frequent, and downward closure holds for the frequent set. It
// is used by tests and by the AuM deletion path as a safety net.
func (l *Lattice) Validate() error {
	minCount := MinCount(l.N, l.MinSupport)
	for k, c := range l.Frequent {
		if c < minCount {
			return fmt.Errorf("itemset: frequent %v has count %d < %d", k.Itemset(), c, minCount)
		}
		x := k.Itemset()
		for i := range x {
			if len(x) == 1 {
				break
			}
			if _, ok := l.Frequent[x.Without(i).Key()]; !ok {
				return fmt.Errorf("itemset: frequent %v has infrequent subset %v", x, x.Without(i))
			}
		}
	}
	for k, c := range l.Border {
		if c >= minCount {
			return fmt.Errorf("itemset: border %v has count %d >= %d", k.Itemset(), c, minCount)
		}
		if _, dup := l.Frequent[k]; dup {
			return fmt.Errorf("itemset: %v in both frequent and border", k.Itemset())
		}
		x := k.Itemset()
		for i := range x {
			if len(x) == 1 {
				break
			}
			if _, ok := l.Frequent[x.Without(i).Key()]; !ok {
				return fmt.Errorf("itemset: border %v has infrequent subset %v", x, x.Without(i))
			}
		}
	}
	return nil
}

// Apriori computes the full lattice L(D, κ) ∪ NB⁻(D, κ) of the dataset by
// level-wise candidate generation (AS94/AMS+96). universe optionally names
// the full item universe so that items never occurring in D still enter the
// negative border (their support, zero, is below any κ); pass nil to restrict
// the universe to observed items.
func Apriori(src TxSource, universe []Item, minsup float64) (*Lattice, error) {
	if minsup <= 0 || minsup >= 1 {
		return nil, fmt.Errorf("itemset: minimum support %v outside (0, 1)", minsup)
	}
	l := NewLattice(minsup)

	// Pass 1: count single items.
	itemCounts := make(map[Item]int)
	for _, it := range universe {
		itemCounts[it] = 0
	}
	n := 0
	err := src.ForEach(func(tx Transaction) error {
		n++
		for _, it := range tx.Items {
			itemCounts[it]++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	l.N = n
	l.Passes = 1
	minCount := MinCount(n, minsup)

	var level []Itemset
	for it, c := range itemCounts {
		x := Itemset{it}
		if c >= minCount {
			l.Frequent[x.Key()] = c
			level = append(level, x)
		} else {
			l.Border[x.Key()] = c
		}
	}

	// Level-wise expansion.
	for len(level) > 0 {
		cands := PruneByFrequent(PrefixJoin(level), frequencyKeys(l.Frequent))
		if len(cands) == 0 {
			break
		}
		tree := NewPrefixTree(cands)
		err := src.ForEach(func(tx Transaction) error {
			tree.CountTx(tx)
			return nil
		})
		if err != nil {
			return nil, err
		}
		l.Passes++
		counts := tree.Counts()
		level = level[:0]
		for _, c := range cands {
			k := c.Key()
			if counts[k] >= minCount {
				l.Frequent[k] = counts[k]
				level = append(level, c)
			} else {
				l.Border[k] = counts[k]
			}
		}
	}
	return l, nil
}

func frequencyKeys(m map[Key]int) map[Key]bool {
	out := make(map[Key]bool, len(m))
	for k := range m {
		out[k] = true
	}
	return out
}
