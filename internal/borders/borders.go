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
// The lattice is the model's exchange form: it is what readers, the codecs
// and FOCUS see. A maintainer also keeps a resident index over it (see index)
// and writes every change through, so between maintenance steps the lattice's
// maps must not be changed behind the maintainer's back.
type Model struct {
	Lattice *itemset.Lattice
	Blocks  []blockseq.ID
	idx     *index // derived from Lattice on the first maintenance step
}

// Clone deep-copies the model. The clone starts without a resident index and
// builds its own on its first maintenance step.
func (m *Model) Clone() *Model {
	blocks := make([]blockseq.ID, len(m.Blocks))
	copy(blocks, m.Blocks)
	return &Model{Lattice: m.Lattice.Clone(), Blocks: blocks}
}

// Counter counts the support of a candidate set over a set of blocks. It is
// the update-phase counting procedure; implementations differ only in what
// data they fetch.
type Counter interface {
	// Name identifies the strategy in reports ("PT-Scan", "ECUT", "ECUT+").
	Name() string
	// Count returns the absolute support count of every itemset in sets
	// over the union of the given blocks.
	Count(sets []itemset.Itemset, blocks []blockseq.ID) (map[itemset.Key]int, error)
}

// PTScan is the BORDERS baseline counter: organize the candidates in a
// prefix tree and scan every transaction of the selected blocks.
type PTScan struct {
	Blocks *itemset.BlockStore
	// Workers shards each block's transactions across worker goroutines,
	// counting with per-worker prefix trees merged additively; non-positive
	// selects GOMAXPROCS, 1 keeps the scan serial. The merged counts are
	// identical to the serial scan for every worker count.
	Workers int
}

// Name implements Counter.
func (PTScan) Name() string { return "PT-Scan" }

// Count implements Counter.
func (c PTScan) Count(sets []itemset.Itemset, blocks []blockseq.ID) (map[itemset.Key]int, error) {
	counts, err := scanBlocks(c.Blocks, blocks, c.Workers, func() itemset.TxCounter {
		return itemset.NewPrefixTree(sets)
	})
	if err != nil {
		return nil, fmt.Errorf("borders: PT-Scan: %w", err)
	}
	return counts, nil
}

// HashTreeScan is the footnote-7 alternative to PT-Scan: same full scan,
// hash tree instead of prefix tree.
type HashTreeScan struct {
	Blocks  *itemset.BlockStore
	Fanout  int // defaults to 8
	LeafCap int // defaults to 16
	// Workers shards each block's transactions across worker goroutines with
	// per-worker hash trees (the trees carry per-instance visit state, so
	// they cannot be shared); non-positive selects GOMAXPROCS, 1 keeps the
	// scan serial.
	Workers int
}

// Name implements Counter.
func (HashTreeScan) Name() string { return "HT-Scan" }

// Count implements Counter.
func (c HashTreeScan) Count(sets []itemset.Itemset, blocks []blockseq.ID) (map[itemset.Key]int, error) {
	fanout, leafCap := c.Fanout, c.LeafCap
	if fanout <= 0 {
		fanout = 8
	}
	if leafCap <= 0 {
		leafCap = 16
	}
	counts, err := scanBlocks(c.Blocks, blocks, c.Workers, func() itemset.TxCounter {
		return itemset.NewHashTree(sets, fanout, leafCap)
	})
	if err != nil {
		return nil, fmt.Errorf("borders: HT-Scan: %w", err)
	}
	return counts, nil
}

// scanBlocks runs the full-scan counting loop shared by PT-Scan and HT-Scan:
// each selected block is fetched and its transactions are sharded across
// workers, each shard counting into its own structure from build; per-shard
// counts merge additively (Section 3.1.1), so the totals are identical to a
// single serial scan for every worker count.
func scanBlocks(bs *itemset.BlockStore, blocks []blockseq.ID, workers int, build func() itemset.TxCounter) (map[itemset.Key]int, error) {
	var total map[itemset.Key]int
	for _, id := range blocks {
		blk, err := bs.Get(id)
		if err != nil {
			return nil, err
		}
		counts := itemset.ParallelCount(blk.Txs, workers, build)
		if total == nil {
			total = counts
		} else {
			itemset.MergeCounts(total, counts)
		}
	}
	if total == nil {
		total = build().Counts()
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
func (c ECUT) Count(sets []itemset.Itemset, blocks []blockseq.ID) (map[itemset.Key]int, error) {
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
func (c ECUTPlus) Count(sets []itemset.Itemset, blocks []blockseq.ID) (map[itemset.Key]int, error) {
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

// Add merges two stats, accumulating phase times and counters.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Detection:         s.Detection + o.Detection,
		Update:            s.Update + o.Update,
		Promoted:          s.Promoted + o.Promoted,
		Demoted:           s.Demoted + o.Demoted,
		CandidatesCounted: s.CandidatesCounted + o.CandidatesCounted,
		UpdateInvoked:     s.UpdateInvoked || o.UpdateInvoked,
	}
}
