package tidlist

import (
	"errors"
	"fmt"
	"slices"

	"github.com/demon-mining/demon/internal/blockseq"
	"github.com/demon-mining/demon/internal/itemset"
)

// ErrEmptyItemset is returned when a counting request contains the empty
// itemset, whose support is trivially |D| and never needs counting.
var ErrEmptyItemset = errors.New("tidlist: cannot count empty itemset")

// CountECUT implements the ECUT support-counting algorithm of Section 3.1.1:
// the support of X = {i1, ..., ik} over the selected blocks is the summed
// cardinality of the per-block intersections of the items' TID-lists. Only
// the TID-lists of the items in X are decoded, which is what makes ECUT fast
// when the candidate set is small. The counts are returned by position in
// sets.
func (s *Store) CountECUT(sets []itemset.Itemset, blocks []blockseq.ID) ([]int, error) {
	return s.count("ECUT", sets, blocks, false)
}

// CountECUTPlus implements ECUT+: like ECUT, but per block the itemset is
// covered with materialized 2-itemset TID-lists where available, so fewer
// and shorter lists are intersected. Items not covered by any materialized
// pair fall back to their single-item lists; correctness follows from
// X1 ∪ ... ∪ Xk = X (Section 3.1.1).
func (s *Store) CountECUTPlus(sets []itemset.Itemset, blocks []blockseq.ID) ([]int, error) {
	return s.count("ECUT+", sets, blocks, true)
}

// count is both algorithms: ECUT is ECUT+ over a block with no materialized
// pairs. Per block each segment is fetched once, each needed list decoded
// once, at its first use in candidate order, and every itemset is counted;
// the additivity property makes per-block counting exact.
func (s *Store) count(name string, sets []itemset.Itemset, blocks []blockseq.ID, pairs bool) ([]int, error) {
	p, ok := s.passes.Get().(*pass)
	if !ok {
		p = &pass{s: s, slab: List{}}
	}
	defer s.passes.Put(p)
	if err := p.resolve(sets, pairs); err != nil {
		return nil, err
	}
	totals := make([]int, len(sets))
	for _, id := range blocks {
		if err := p.startBlock(id, pairs); err != nil {
			return nil, fmt.Errorf("tidlist: %s block %d: %w", name, id, err)
		}
		at := 0
		for i, x := range sets {
			slots := p.slots[at : at+len(x)]
			at += len(x)
			empty, err := p.cover(x, slots)
			if err != nil {
				return nil, fmt.Errorf("tidlist: %s block %d: %w", name, id, err)
			}
			if empty {
				continue // some component list empty: zero in this block
			}
			if len(p.lists) == 2 {
				totals[i] += p.pair.count(p.lists[0], p.lists[1])
				continue
			}
			var n int
			n, p.scratch = IntersectManyCount(p.lists, p.scratch)
			totals[i] += n
		}
	}
	return totals, nil
}

// pass is the state of one counting invocation, recycled through the
// store's pool so that its arrays stop growing. Per block the lists are
// decoded into one slab (non-nil, so decodeList replaces it when it fills)
// that the next block reuses.
type pass struct {
	s                *Store
	items            []uint64 // the candidates' distinct items, sorted
	slots            []int32  // every candidate's items as indices into items, candidate after candidate
	pairKeys         []uint64 // under ECUT+, the distinct pairs of items within a candidate, sorted
	itemSeg, pairSeg view     // the current block's segments, as wanted by items and pairKeys
	slab             List
	lists            []List // the lists covering the current candidate
	scratch          List
	pair             pairCounter
}

// resolve sorts the distinct items of sets and, with pairs, the distinct
// pairs within each set, and gives every set's items their indices.
func (p *pass) resolve(sets []itemset.Itemset, pairs bool) error {
	p.items, p.pairKeys, p.slots = p.items[:0], p.pairKeys[:0], p.slots[:0]
	for _, x := range sets {
		if len(x) == 0 {
			return ErrEmptyItemset
		}
		for i, a := range x {
			p.items = append(p.items, uint64(a))
			for j := i + 1; pairs && j < len(x); j++ {
				p.pairKeys = append(p.pairKeys, pairKeyOf(a, x[j]))
			}
		}
	}
	slices.Sort(p.items)
	slices.Sort(p.pairKeys)
	p.items, p.pairKeys = slices.Compact(p.items), slices.Compact(p.pairKeys)
	for _, x := range sets {
		for _, a := range x {
			i, _ := slices.BinarySearch(p.items, uint64(a))
			p.slots = append(p.slots, int32(i))
		}
	}
	return nil
}

// startBlock forgets the previous block's lists and locates block id's.
func (p *pass) startBlock(id blockseq.ID, pairs bool) error {
	p.slab = p.slab[:0]
	// The slab is reused: a list of this block can start at the address an
	// earlier block's list, still cached in the bitmap, started at.
	p.pair.of = nil
	data, err := p.s.segment(id, false)
	if err == nil {
		err = p.itemSeg.locate(data, false, p.items)
	}
	data = nil // ECUT: no pairs
	if err == nil && pairs {
		data, err = p.s.segment(id, true)
	}
	if err == nil {
		err = p.pairSeg.locate(data, true, p.pairKeys)
	}
	return err
}

// cover sets p.lists to the TID-lists covering x, whose items sit in slots,
// in the current block: a greedy pair matching over the block's
// materialized 2-itemsets, single-item lists for the rest. empty reports
// that some component list is empty, so x does not occur in the block.
func (p *pass) cover(x itemset.Itemset, slots []int32) (empty bool, err error) {
	p.lists = p.lists[:0]
	var coveredBuf [16]bool
	covered := coveredBuf[:]
	if len(x) > len(coveredBuf) {
		covered = make([]bool, len(x))
	}
	for i := range x {
		if covered[i] {
			continue
		}
		v, at := &p.itemSeg, int(slots[i])
		for j := i + 1; j < len(x) && p.pairSeg.found > 0; j++ {
			if covered[j] {
				continue
			}
			if k, ok := slices.BinarySearch(p.pairKeys, pairKeyOf(x[i], x[j])); ok && p.pairSeg.spans[k].ok {
				v, at, covered[j] = &p.pairSeg, k, true
				break
			}
		}
		var l List
		if p.slab, l, err = p.s.decode(p.slab, v, at); err != nil {
			return false, err
		}
		covered[i] = true
		if len(l) == 0 {
			return true, nil
		}
		p.lists = append(p.lists, l)
	}
	return false, nil
}
