// Package borders implements the BORDERS incremental frequent-itemset
// maintenance algorithm (Feldman et al. 1997 / Thomas et al. 1997) as
// described in Section 3.1.1 of the DEMON paper, with the counting procedure
// of the update phase pluggable: PT-Scan (the baseline, a full scan of the
// selected data with a prefix tree), ECUT (item TID-lists) and ECUT+
// (materialized 2-itemset TID-lists). The package also provides the
// deletion-capable variant AuM used in the Section 3.2.4 trade-off
// discussion, and support-threshold changes (κ → κ′).
package borders

import (
	"fmt"
	"slices"
	"time"

	"github.com/demon-mining/demon/internal/blockseq"
	"github.com/demon-mining/demon/internal/itemset"
	"github.com/demon-mining/demon/internal/tidlist"
)

// Model is a maintained frequent-itemset model: the lattice L(D, κ) ∪
// NB⁻(D, κ) with counts, plus the identifiers of the blocks it was extracted
// from. Carrying the block list inside the model is what lets GEMM maintain
// w models over different BSS selections with one Maintainer.
//
// The family lives in one resident prefix tree (see index) that maintenance
// updates in place, the codec streams and the readers below walk. Lattice
// materialises it as the map form other packages exchange.
type Model struct {
	// N is the number of transactions in the model's blocks.
	N int
	// MinSupport is the fractional threshold κ.
	MinSupport float64
	// Passes counts the scans of block data made while maintaining the
	// model (a cost metric).
	Passes int
	Blocks []blockseq.ID
	ix     *index
}

// FromLattice returns the model of a lattice mined over the given blocks.
func FromLattice(l *itemset.Lattice, blocks ...blockseq.ID) *Model {
	m := &Model{N: l.N, MinSupport: l.MinSupport, Passes: l.Passes, Blocks: blocks, ix: newIndex()}
	for k, c := range l.Frequent {
		m.ix.track(k.Itemset(), c, frequent)
	}
	for k, c := range l.Border {
		m.ix.track(k.Itemset(), c, border)
	}
	m.ix.listFrequent()
	return m
}

// Lattice returns the model as a lattice, a snapshot that is the caller's to
// change.
func (m *Model) Lattice() *itemset.Lattice {
	l := itemset.NewLattice(m.MinSupport)
	l.N, l.Passes = m.N, m.Passes
	m.EachFrequent(func(x itemset.Itemset, count int) { l.Frequent[x.Key()] = count })
	m.EachBorder(func(x itemset.Itemset, count int) { l.Border[x.Key()] = count })
	return l
}

// Clone deep-copies the model.
func (m *Model) Clone() *Model { return FromLattice(m.Lattice(), slices.Clone(m.Blocks)...) }

// EachFrequent hands fn every frequent itemset with its absolute support
// count, in itemset.SortItemsets order. The set is overwritten by the next
// call: clone it to keep it.
func (m *Model) EachFrequent(fn func(x itemset.Itemset, count int)) {
	var x itemset.Itemset // not the index's scratch: readers run concurrently
	for _, n := range m.ix.frequent {
		x = m.ix.tree.Itemset(n, x)
		fn(x, m.ix.count[n])
	}
}

// EachBorder is EachFrequent for the negative border, which is not listed:
// it walks the tree.
func (m *Model) EachBorder(fn func(x itemset.Itemset, count int)) {
	m.ix.tree.Walk(func(n int32, x itemset.Itemset) {
		if m.ix.class[n] == border {
			fn(x, m.ix.count[n])
		}
	})
}

// NumFrequent returns |L|.
func (m *Model) NumFrequent() int { return len(m.ix.frequent) }

// Rules derives the association rules meeting the confidence threshold from
// the frequent itemsets, see itemset.Rules.
func (m *Model) Rules(minConf float64) ([]itemset.Rule, error) {
	return itemset.RulesOver(m.N, m.EachFrequent, func(x itemset.Itemset) int {
		if n := m.ix.tree.Lookup(x, -1); n >= 0 && m.ix.class[n] >= frequent {
			return m.ix.count[n]
		}
		return 0
	}, minConf)
}

// Counter counts the support of a candidate set over a set of blocks. It is
// the update-phase counting procedure; implementations differ only in what
// data they fetch.
type Counter interface {
	// Name identifies the strategy in reports ("PT-Scan", "ECUT", "ECUT+").
	Name() string
	// Count returns the absolute support count of every itemset in sets
	// over the union of the given blocks, by position in sets. It must not
	// keep sets, or the items in them, past its return: the update phase
	// reuses their memory for its next round of candidates.
	Count(sets []itemset.Itemset, blocks []blockseq.ID) ([]int, error)
}

// PTScan is the BORDERS baseline counter: organize the candidates in a
// prefix tree and scan every transaction of the selected blocks.
type PTScan struct {
	Blocks *itemset.BlockStore
}

// Name implements Counter.
func (PTScan) Name() string { return "PT-Scan" }

// Count implements Counter: each selected block is fetched and scanned;
// per-block counts add up (Section 3.1.1).
func (c PTScan) Count(sets []itemset.Itemset, blocks []blockseq.ID) ([]int, error) {
	total := make([]int, len(sets))
	for _, id := range blocks {
		blk, err := c.Blocks.Get(id)
		if err != nil {
			return nil, fmt.Errorf("borders: PT-Scan: %w", err)
		}
		for i, n := range itemset.PrefixCount(sets, blk.Txs) {
			total[i] += n
		}
	}
	return total, nil
}

// ECUT counts through per-block item TID-lists.
type ECUT struct {
	TIDs *tidlist.Store
}

// Name implements Counter.
func (ECUT) Name() string { return "ECUT" }

// Count implements Counter.
func (c ECUT) Count(sets []itemset.Itemset, blocks []blockseq.ID) ([]int, error) {
	return c.TIDs.CountECUT(sets, blocks)
}

// ECUTPlus counts through materialized 2-itemset TID-lists, falling back to
// item lists where no pair is materialized.
type ECUTPlus struct {
	TIDs *tidlist.Store
}

// Name implements Counter.
func (ECUTPlus) Name() string { return "ECUT+" }

// Count implements Counter.
func (c ECUTPlus) Count(sets []itemset.Itemset, blocks []blockseq.ID) ([]int, error) {
	return c.TIDs.CountECUTPlus(sets, blocks)
}

// Stats reports what one maintenance step did, split into the two BORDERS
// phases. Figures 4–7 of the paper plot exactly this breakdown.
type Stats struct {
	// Detection is the time spent scanning the new block and updating the
	// supports of all tracked itemsets.
	Detection time.Duration
	// Update is the time spent counting and classifying new candidates (zero
	// when the detection phase flags no change).
	Update time.Duration
	// Promoted counts border itemsets that became frequent.
	Promoted int
	// Demoted counts frequent itemsets that fell below the threshold.
	Demoted int
	// CandidatesCounted is the number of new candidate itemsets whose
	// support the update phase counted (the |S| of Figure 2).
	CandidatesCounted int
	// UpdateInvoked reports whether the update phase ran at all.
	UpdateInvoked bool
}
