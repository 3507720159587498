// Package pattern implements the compact-sequence detection algorithm of
// Section 4 of the DEMON paper: given a deviation function (FOCUS) and a
// significance level α, it incrementally maintains all compact sequences of
// pairwise-similar blocks as new blocks arrive. A compact sequence is a
// maximal sequence of pairwise similar blocks with no "holes": any block
// lying between its first and last members that is similar to every earlier
// member also belongs to the sequence.
package pattern

import (
	"fmt"
	"sort"
	"time"

	"github.com/demon-mining/demon/internal/blockseq"
	"github.com/demon-mining/demon/internal/focus"
	"github.com/demon-mining/demon/internal/obs"
)

// Detector incrementally maintains the compact sequences of a systematically
// evolving database. The pairwise deviation matrix is cached so each
// deviation is computed exactly once (the optimization Section 4 calls out).
type Detector[B any] struct {
	differ focus.Differ[B]
	alpha  float64
	window int // 0 = unrestricted; otherwise only the last `window` blocks participate

	ids    []blockseq.ID
	blocks []B
	// dev[i][j] (j < i) is the deviation between blocks i and j; indices
	// are positions in ids/blocks.
	dev [][]focus.Deviation
	// seqs holds one sequence per block, each started when its block
	// arrived — the G_1, ..., G_t of the inductive algorithm. Entries are
	// positions into ids.
	seqs [][]int
}

// Stats describes one AddBlock step, the quantities plotted in Figure 10.
type Stats struct {
	// Deviations is the number of block pairs whose deviation was computed
	// (always the number of retained earlier blocks).
	Deviations int
	// DeviationTime is the total time spent in the deviation function.
	DeviationTime time.Duration
	// ExtendTime is the time spent extending existing sequences with the new
	// block; DeviationTime + ExtendTime decompose the per-block cost of
	// Figure 10.
	ExtendTime time.Duration
	// Extended is the number of existing sequences the new block joined.
	Extended int
	// SimilarTo is the number of earlier blocks the new block is similar to.
	SimilarTo int
}

// New creates a detector over the given deviation function at significance
// level α ∈ (0, 1). A positive window restricts detection to the window most
// recent blocks (the most-recent-window extension of footnote 9): older
// blocks are pruned from all sequences and no longer compared against. Zero
// leaves detection unrestricted.
func New[B any](differ focus.Differ[B], alpha float64, window int) (*Detector[B], error) {
	if differ == nil {
		return nil, fmt.Errorf("pattern: nil differ")
	}
	if alpha <= 0 || alpha >= 1 {
		return nil, fmt.Errorf("pattern: significance level %v outside (0, 1)", alpha)
	}
	if window < 0 {
		return nil, fmt.Errorf("pattern: negative window %d", window)
	}
	return &Detector[B]{differ: differ, alpha: alpha, window: window}, nil
}

// AddBlock ingests the next block: one deviation computation against every
// retained earlier block, the new singleton sequence G_{t+1}, and the
// extension of every existing sequence whose members are all similar to the
// new block.
func (d *Detector[B]) AddBlock(id blockseq.ID, blk B) (Stats, error) {
	var st Stats
	if n := len(d.ids); n > 0 && id <= d.ids[n-1] {
		return st, fmt.Errorf("pattern: block %d out of order (latest %d)", id, d.ids[n-1])
	}
	reg := obs.Default()
	span := reg.Timer("pattern.addblock.ns").Start()
	defer span.End()

	// Augment the deviation matrix with δ(new, Di) for every retained block.
	// Under a window, blocks that will be outside the window once the new
	// block arrives are skipped (their payloads were released by prune).
	lo := 0
	if d.window > 0 {
		if lo = len(d.ids) - (d.window - 1); lo < 0 {
			lo = 0
		}
	}
	simRow := make([]bool, len(d.ids))
	devRow := make([]focus.Deviation, len(d.ids))
	start := time.Now()
	for i := lo; i < len(d.blocks); i++ {
		dev, err := d.differ.Deviation(d.blocks[i], blk)
		if err != nil {
			return st, fmt.Errorf("pattern: deviation between blocks %d and %d: %w", d.ids[i], id, err)
		}
		devRow[i] = dev
		simRow[i] = dev.PValue >= d.alpha
		if simRow[i] {
			st.SimilarTo++
		}
	}
	st.DeviationTime = time.Since(start)
	st.Deviations = len(d.blocks) - lo

	// Extend each sequence whose every member is similar to the new block.
	extendStart := time.Now()
	newPos := len(d.ids)
	for si := range d.seqs {
		all := true
		for _, pos := range d.seqs[si] {
			if !simRow[pos] {
				all = false
				break
			}
		}
		if all {
			d.seqs[si] = append(d.seqs[si], newPos)
			st.Extended++
		}
	}
	st.ExtendTime = time.Since(extendStart)

	d.ids = append(d.ids, id)
	d.blocks = append(d.blocks, blk)
	d.dev = append(d.dev, devRow)
	d.seqs = append(d.seqs, []int{newPos}) // G_{t+1} = {D_{t+1}}

	if d.window > 0 {
		d.prune()
	}
	if reg.Enabled() {
		reg.Timer("pattern.deviation.ns").Record(st.DeviationTime)
		reg.Timer("pattern.extend.ns").Record(st.ExtendTime)
		reg.Counter("pattern.deviations").Add(int64(st.Deviations))
		reg.Counter("pattern.similar").Add(int64(st.SimilarTo))
		reg.Gauge("pattern.blocks").Set(int64(len(d.ids)))
		reg.Gauge("pattern.sequences").Set(int64(len(d.seqs)))
	}
	return st, nil
}

// prune drops blocks that fell out of the most recent window from every
// sequence; sequences that become empty are removed. Block payloads of
// expired blocks are released.
func (d *Detector[B]) prune() {
	cutoff := len(d.ids) - d.window // positions < cutoff expire
	if cutoff <= 0 {
		return
	}
	kept := d.seqs[:0]
	for _, seq := range d.seqs {
		trimmed := seq[:0]
		for _, pos := range seq {
			if pos >= cutoff {
				trimmed = append(trimmed, pos)
			}
		}
		if len(trimmed) > 0 {
			kept = append(kept, trimmed)
		}
	}
	d.seqs = kept
	// Release expired payloads so the detector's memory tracks the window.
	var zero B
	for i := 0; i < cutoff; i++ {
		d.blocks[i] = zero
	}
}

// T returns the identifier of the latest block seen (0 if none).
func (d *Detector[B]) T() blockseq.ID {
	if len(d.ids) == 0 {
		return 0
	}
	return d.ids[len(d.ids)-1]
}

// Similarity returns the cached deviation between two previously added
// blocks. Under a window, ok is false for blocks a window or more apart:
// their deviation was never computed.
func (d *Detector[B]) Similarity(a, b blockseq.ID) (focus.Deviation, bool) {
	ia, ib := d.pos(a), d.pos(b)
	if ia < 0 || ib < 0 || ia == ib {
		return focus.Deviation{}, false
	}
	if ia < ib {
		ia, ib = ib, ia
	}
	if d.window > 0 && ia-ib >= d.window {
		return focus.Deviation{}, false
	}
	return d.dev[ia][ib], true
}

func (d *Detector[B]) pos(id blockseq.ID) int {
	i := sort.Search(len(d.ids), func(i int) bool { return d.ids[i] >= id })
	if i < len(d.ids) && d.ids[i] == id {
		return i
	}
	return -1
}

// Sequences returns every currently maintained compact sequence as block
// identifier lists, in order of their starting block.
func (d *Detector[B]) Sequences() [][]blockseq.ID {
	out := make([][]blockseq.ID, len(d.seqs))
	for i, seq := range d.seqs {
		ids := make([]blockseq.ID, len(seq))
		for j, pos := range seq {
			ids[j] = d.ids[pos]
		}
		out[i] = ids
	}
	return out
}

// Maximal returns the compact sequences that are not subsets of another
// maintained sequence — the deduplicated view an analyst inspects (the
// greedy induction keeps one sequence per starting block, so later
// singletons are often strict subsets of earlier sequences).
func (d *Detector[B]) Maximal() [][]blockseq.ID {
	seqs := d.Sequences()
	var out [][]blockseq.ID
	for i, s := range seqs {
		subset := false
		for j, t := range seqs {
			if i == j {
				continue
			}
			if len(s) < len(t) && isSubset(s, t) {
				subset = true
				break
			}
			if len(s) == len(t) && j < i && equalSeq(s, t) {
				subset = true // duplicate: keep the first occurrence
				break
			}
		}
		if !subset {
			out = append(out, s)
		}
	}
	return out
}

func isSubset(s, t []blockseq.ID) bool {
	j := 0
	for _, x := range s {
		for j < len(t) && t[j] < x {
			j++
		}
		if j >= len(t) || t[j] != x {
			return false
		}
		j++
	}
	return true
}

func equalSeq(s, t []blockseq.ID) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// CyclicSubsequence post-processes a compact sequence into its longest
// arithmetic (cyclic) subsequence with the given period in block identifiers
// — the D1, D3, D5, D7 example of Section 4. It returns nil when no two
// members are period apart.
func CyclicSubsequence(seq []blockseq.ID, period blockseq.ID) []blockseq.ID {
	if period <= 0 || len(seq) == 0 {
		return nil
	}
	present := make(map[blockseq.ID]bool, len(seq))
	for _, id := range seq {
		present[id] = true
	}
	var best []blockseq.ID
	for _, start := range seq {
		if present[start-period] {
			continue // not a chain start
		}
		var chain []blockseq.ID
		for id := start; present[id]; id += period {
			chain = append(chain, id)
		}
		if len(chain) > len(best) {
			best = chain
		}
	}
	if len(best) < 2 {
		return nil
	}
	return best
}
