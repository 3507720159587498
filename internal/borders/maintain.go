package borders

import (
	"fmt"
	"slices"
	"time"

	"github.com/demon-mining/demon/internal/blockseq"
	"github.com/demon-mining/demon/internal/diskio"
	"github.com/demon-mining/demon/internal/itemset"
	"github.com/demon-mining/demon/internal/obs"
	"github.com/demon-mining/demon/internal/par"
)

// Maintainer drives BORDERS maintenance of a Model. Blocks must be ingested
// into the stores the Counter reads from (the transaction BlockStore for
// PT-Scan, the TID-list store for ECUT/ECUT+) before AddBlock is called; the
// demon facade package does this ordering for callers.
//
// A Maintainer holds no per-step state — that lives on the Model — so one
// Maintainer may maintain distinct models concurrently, as GEMM does.
type Maintainer struct {
	// Store provides the transaction data of blocks; the detection phase
	// scans the new block through it, and DeleteBlock re-reads the departing
	// block.
	Store *itemset.BlockStore
	// Counter is the update-phase counting strategy.
	Counter Counter
	// MinSupport is the fractional threshold κ for models created by Empty.
	MinSupport float64
	// IO optionally exposes the I/O counters of the store the Counter reads
	// from. When set (and the obs registry is enabled), the update phase
	// records the bytes each counting invocation fetched under
	// "borders.count.<strategy>.bytes" — the quantity the Section 3.1.1
	// ECUT-vs-PT-Scan argument turns on.
	IO interface{ Stats() diskio.Stats }
	// Workers shards the detection-phase scan of the new (or departing)
	// block across worker goroutines, each counting into its own vector over
	// the model's one resident prefix tree, the per-shard counts merged
	// additively; non-positive selects GOMAXPROCS, 1 keeps the scan serial.
	// The resulting model is identical for every worker count.
	Workers int
}

// detect is the detection phase shared by AddBlock and DeleteBlock: one scan
// of txs against the model's prefix tree, sharded across the maintainer's
// workers with one count vector per shard, then sign times the per-set counts
// added to the tracked supports. Items the index has never seen — possible
// only when adding — enter the border with their count. The sums are taken in
// shard order over additive counts, so they equal the serial scan.
func (mt *Maintainer) detect(m *Model, txs []itemset.Transaction, sign int) {
	ix := m.ix
	shards := max(par.Shards(len(txs), mt.Workers), 1)
	deltas := ix.shardDeltas(shards)
	newItems := make([]map[itemset.Item]int, shards)
	par.Do(len(txs), mt.Workers, func(s, lo, hi int) {
		for _, tx := range txs[lo:hi] {
			ix.tree.CountInto(deltas[s], tx)
			for i, it := range tx.Items {
				if ix.tree.Lookup(tx.Items[i:i+1], -1) < 0 {
					if newItems[s] == nil {
						newItems[s] = make(map[itemset.Item]int)
					}
					newItems[s][it]++
				}
			}
		}
	})
	total := deltas[0]
	for n := range total {
		d := total[n]
		total[n] = 0
		for _, other := range deltas[1:] {
			d += other[n]
			other[n] = 0
		}
		if d != 0 && ix.class[n] != untracked {
			ix.count[n] += sign * d
		}
	}
	for _, shard := range newItems {
		for it, c := range shard {
			x := itemset.Itemset{it}
			if n := ix.tree.Lookup(x, -1); n >= 0 { // an earlier shard saw it too
				ix.count[n] += sign * c
			} else {
				ix.track(x, sign*c, border)
			}
		}
	}
	m.N += sign * len(txs)
	m.Passes++
}

// Empty returns a model over zero blocks.
func (mt *Maintainer) Empty() *Model {
	return &Model{MinSupport: mt.MinSupport, ix: newIndex()}
}

// AddBlock updates the model to reflect the arrival of blk, which must
// already be ingested. It implements both BORDERS phases: the detection
// phase scans only the new block, updating the supports of every tracked
// itemset (and discovering never-seen items); the update phase, invoked only
// when the detection phase flags border promotions, counts new candidate
// itemsets over all of the model's blocks with the configured Counter.
//
// Adding a block to an empty model degenerates to computing the initial
// lattice through the Counter, one level at a time.
func (mt *Maintainer) AddBlock(m *Model, blk *itemset.TxBlock) (Stats, error) {
	if slices.Contains(m.Blocks, blk.ID) {
		return Stats{}, fmt.Errorf("borders: block %d already part of the model", blk.ID)
	}
	st, err := mt.step(m, blk.Txs, +1, append(m.Blocks, blk.ID))
	if err != nil {
		return st, fmt.Errorf("borders: adding block %d: %w", blk.ID, err)
	}
	return st, nil
}

// step runs both phases for a block that arrives (sign +1) or departs (-1),
// leaving the model over the given blocks.
func (mt *Maintainer) step(m *Model, txs []itemset.Transaction, sign int, blocks []blockseq.ID) (Stats, error) {
	start := time.Now()
	mt.detect(m, txs, sign)
	m.Blocks = blocks
	detection := time.Since(start)
	obs.Default().Timer("borders.detect.ns").Record(detection)
	st, err := mt.reclassifyAndExpand(m)
	st.Detection = detection
	return st, err
}

// DeleteBlock updates the model to reflect the removal of one of its blocks
// (the AuM variant of Section 3.2.4): the supports of all tracked itemsets
// contained in the departing transactions are decremented, then the model is
// reclassified — border itemsets may rise above the shrunken threshold,
// triggering the same update phase as an addition.
func (mt *Maintainer) DeleteBlock(m *Model, id blockseq.ID) (Stats, error) {
	pos := slices.Index(m.Blocks, id)
	if pos < 0 {
		return Stats{}, fmt.Errorf("borders: block %d is not part of the model", id)
	}
	blk, err := mt.Store.Get(id)
	if err != nil {
		return Stats{}, fmt.Errorf("borders: deleting block %d: %w", id, err)
	}
	st, err := mt.step(m, blk.Txs, -1, slices.Delete(m.Blocks, pos, pos+1))
	if err != nil {
		return st, fmt.Errorf("borders: deleting block %d: %w", id, err)
	}
	return st, nil
}

// ChangeMinSupport retargets the model to threshold κ′ (Section 3.1.1).
// Raising the threshold needs no data access: the tracked counts are exact,
// so the new lattice is carved out of the old one. Lowering it reclassifies
// the tracked itemsets and runs the BORDERS update phase to expand the
// frontier.
func (mt *Maintainer) ChangeMinSupport(m *Model, minsup float64) (Stats, error) {
	if minsup <= 0 || minsup >= 1 {
		return Stats{}, fmt.Errorf("borders: minimum support %v outside (0, 1)", minsup)
	}
	m.MinSupport = minsup
	st, err := mt.reclassifyAndExpand(m)
	if err != nil {
		return st, fmt.Errorf("borders: changing threshold to %v: %w", minsup, err)
	}
	return st, nil
}

// reclassifyAndExpand restores the model's invariants after counts, N, or
// the threshold changed, then — if any border itemset was promoted — runs the
// update phase: repeated candidate generation above the sets that just
// became frequent, counting through the Counter, and classification, until
// no new frequent itemsets appear.
func (mt *Maintainer) reclassifyAndExpand(m *Model) (Stats, error) {
	var st Stats
	ix := m.ix
	minCount := itemset.MinCount(m.N, m.MinSupport)

	// One scan of the count vector finds the frequent itemsets that fell
	// below the threshold and the border itemsets that reached it. The two
	// do not interact: a border set above a demoted set has at most that
	// set's count.
	var demoted, promoted []int32
	for n, cl := range ix.class {
		switch {
		case cl == frequent && ix.count[n] < minCount:
			demoted = append(demoted, int32(n))
		case cl == border && ix.count[n] >= minCount:
			promoted = append(promoted, int32(n))
		}
	}
	st.Demoted, st.Promoted = len(demoted), len(promoted)

	// A demoted itemset joins the border iff all its proper subsets are
	// still frequent (footnote 6); tracked itemsets with a no-longer-frequent
	// subset — all of them supersets of a demoted set — leave the model.
	for _, d := range demoted {
		ix.class[d] = border
	}
	ix.evictAbove(demoted)
	for _, p := range promoted {
		ix.class[p] = fresh
	}
	if len(demoted)+len(promoted) > 0 {
		defer ix.listFrequent() // once the update phase has settled the classes
	}
	reg := obs.Default()
	reg.Counter("borders.promoted").Add(int64(st.Promoted))
	reg.Counter("borders.demoted").Add(int64(st.Demoted))
	if len(promoted) == 0 {
		return st, nil
	}

	// Update phase: expand the frontier until no new frequent itemsets.
	start := time.Now()
	st.UpdateInvoked = true
	updateTimer := reg.Timer("borders.update.ns")
	reg.Counter("borders.update.invocations").Inc()
	// Per-strategy counting instruments; resolved only when recording so the
	// disabled path stays allocation-free.
	var countTimer *obs.Timer
	var candCounter, byteCounter *obs.Counter
	if reg.Enabled() {
		label := obs.Label(mt.Counter.Name())
		countTimer = reg.Timer("borders.count." + label + ".ns")
		candCounter = reg.Counter("borders.count." + label + ".candidates")
		if mt.IO != nil {
			byteCounter = reg.Counter("borders.count." + label + ".bytes")
		}
	}
	for freshNodes := promoted; len(freshNodes) > 0; {
		cands := ix.candidates(freshNodes)
		if len(cands) == 0 {
			break
		}
		var ioBefore diskio.Stats
		if byteCounter != nil {
			ioBefore = mt.IO.Stats()
		}
		cspan := countTimer.Start()
		counts, err := mt.Counter.Count(cands, m.Blocks)
		cspan.EndObserving(candCounter, int64(len(cands)))
		if byteCounter != nil {
			byteCounter.Add(mt.IO.Stats().BytesRead - ioBefore.BytesRead)
		}
		if err != nil {
			return st, err
		}
		st.CandidatesCounted += len(cands)
		freshNodes = freshNodes[:0]
		for i, c := range cands {
			if counts[i] >= minCount {
				freshNodes = append(freshNodes, ix.track(c, counts[i], fresh))
			} else {
				ix.track(c, counts[i], border)
			}
		}
	}
	st.Update = time.Since(start)
	updateTimer.Record(st.Update)
	return st, nil
}
