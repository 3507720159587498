package tidlist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"github.com/demon-mining/demon/internal/blockseq"
	"github.com/demon-mining/demon/internal/diskio"
	"github.com/demon-mining/demon/internal/itemset"
)

// ErrEmptyItemset is returned when a counting request contains the empty
// itemset, whose support is trivially |D| and never needs counting.
var ErrEmptyItemset = errors.New("tidlist: cannot count empty itemset")

// CountECUT implements the ECUT support-counting algorithm of Section 3.1.1:
// the support of X = {i1, ..., ik} over the selected blocks is the summed
// cardinality of the per-block intersections of the items' TID-lists. Only
// the TID-lists of the items in X are fetched, which is what makes ECUT fast
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
// pairs. Per block each needed list is fetched once, at its first use in
// candidate order, and every itemset is counted; the additivity property
// makes per-block counting exact.
func (s *Store) count(name string, sets []itemset.Itemset, blocks []blockseq.ID, pairs bool) ([]int, error) {
	p, ok := s.passes.Get().(*pass)
	if !ok {
		p = &pass{s: s, slotOf: make(map[itemset.Item]int32), pairs: make(map[itemset.Key]List), slab: List{}}
	}
	defer s.passes.Put(p)
	if err := p.resolve(sets); err != nil {
		return nil, err
	}
	totals := make([]int, len(sets))
	var idx map[itemset.Key]bool // stays empty for ECUT
	var err error
	for _, id := range blocks {
		if pairs {
			if idx, err = s.loadPairIndex(id); err != nil {
				return nil, err
			}
		}
		p.startBlock(id)
		at := 0
		for i, x := range sets {
			slots := p.slots[at : at+len(x)]
			at += len(x)
			empty, err := p.cover(x, slots, idx)
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
// store's pool so that its arrays stop growing after the first. The
// candidates' items are resolved to dense slots once; per block, each slot's
// list is decoded into one slab (non-nil, so readList moves it to a larger
// one when it fills) that the next block reuses, and the slots' store keys
// are cut from one string.
type pass struct {
	s      *Store
	id     blockseq.ID
	slotOf map[itemset.Item]int32
	items  []itemset.Item // by slot
	slots  []int32        // every candidate's item slots, candidate after candidate
	// By slot, for the current block: the list (nil when absent) once
	// fetched, and the end of the slot's key in keys.
	list    []List
	fetched []bool
	keyEnd  []int
	keys    string
	keyBuf  []byte
	slab    List
	pairs   map[itemset.Key]List // the current block's pair lists, for ECUT+
	lists   []List               // the lists covering the current candidate
	scratch List
	pair    pairCounter
}

// resolve numbers the items of sets in order of first appearance.
func (p *pass) resolve(sets []itemset.Itemset) error {
	clear(p.slotOf)
	p.items, p.slots = p.items[:0], p.slots[:0]
	for _, x := range sets {
		if len(x) == 0 {
			return ErrEmptyItemset
		}
		for _, it := range x {
			slot, ok := p.slotOf[it]
			if !ok {
				slot = int32(len(p.items))
				p.slotOf[it] = slot
				p.items = append(p.items, it)
			}
			p.slots = append(p.slots, slot)
		}
	}
	// Each block starts by clearing fetched and rewriting keyEnd.
	n := len(p.items)
	p.list = slices.Grow(p.list[:0], n)[:n]
	p.fetched = slices.Grow(p.fetched[:0], n)[:n]
	p.keyEnd = slices.Grow(p.keyEnd[:0], n)[:n]
	return nil
}

// startBlock forgets the previous block's lists and builds block id's item
// keys.
func (p *pass) startBlock(id blockseq.ID) {
	p.id = id
	clear(p.fetched)
	clear(p.list) // drop the references to slabs outgrown in the last block
	clear(p.pairs)
	p.slab = p.slab[:0]
	// The slab is reused: a list of this block can start at the address an
	// earlier block's list, still cached in the bitmap, started at.
	p.pair.of = nil
	p.keyBuf = p.keyBuf[:0]
	for slot, it := range p.items {
		p.keyBuf = appendItemKey(p.keyBuf, id, it)
		p.keyEnd[slot] = len(p.keyBuf)
	}
	p.keys = string(p.keyBuf)
}

// itemList returns the slot's list in the current block, fetching it at the
// first call.
func (p *pass) itemList(slot int32) (List, error) {
	if p.fetched[slot] {
		return p.list[slot], nil
	}
	start := 0
	if slot > 0 {
		start = p.keyEnd[slot-1]
	}
	slab, l, err := p.s.readList(p.slab, p.keys[start:p.keyEnd[slot]])
	switch {
	case errors.Is(err, diskio.ErrNotFound):
		// Absent item: empty list.
	case err != nil:
		return nil, fmt.Errorf("tidlist: block %d item %d: %w", p.id, p.items[slot], err)
	default:
		p.slab = slab
	}
	p.list[slot], p.fetched[slot] = l, true
	return l, nil
}

// cover sets p.lists to the TID-lists covering x, whose items sit in slots,
// in the current block: a greedy pair matching over the materialized
// 2-itemsets of idx, single-item lists for the rest. empty reports that some
// component list is empty, so x does not occur in the block.
func (p *pass) cover(x itemset.Itemset, slots []int32, idx map[itemset.Key]bool) (empty bool, err error) {
	p.lists = p.lists[:0]
	var coveredBuf [16]bool
	covered := coveredBuf[:]
	if len(x) > len(coveredBuf) {
		covered = make([]bool, len(x))
	}
	var keyBuf [2 * binary.MaxVarintLen32]byte

	for i := range x {
		if covered[i] {
			continue
		}
		var l List
		matched := false
		for j := i + 1; j < len(x) && len(idx) > 0; j++ {
			if covered[j] {
				continue
			}
			// The pair's key, built in place: most probes miss the index.
			pk := binary.AppendUvarint(binary.AppendUvarint(keyBuf[:0], uint64(x[i])), uint64(x[j]))
			if !idx[itemset.Key(pk)] {
				continue
			}
			var ok bool
			if l, ok = p.pairs[itemset.Key(pk)]; !ok {
				if p.slab, l, err = p.s.pairList(p.slab, p.id, itemset.Itemset{x[i], x[j]}); err != nil {
					return false, err
				}
				p.pairs[itemset.Key(pk)] = l
			}
			covered[j] = true
			matched = true
			break
		}
		if !matched {
			if l, err = p.itemList(slots[i]); err != nil {
				return false, err
			}
		}
		covered[i] = true
		if len(l) == 0 {
			return true, nil
		}
		p.lists = append(p.lists, l)
	}
	return false, nil
}
