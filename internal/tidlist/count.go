package tidlist

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/demon-mining/demon/internal/blockseq"
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
// pairs. Per block each needed list is fetched once and every itemset is
// counted; the additivity property makes per-block counting exact.
func (s *Store) count(name string, sets []itemset.Itemset, blocks []blockseq.ID, pairs bool) ([]int, error) {
	for _, x := range sets {
		if len(x) == 0 {
			return nil, ErrEmptyItemset
		}
	}
	totals := make([]int, len(sets))
	itemCache := make(map[itemset.Item]List)
	pairCache := make(map[itemset.Key]List)
	var lists []List
	var scratch List
	var pair pairCounter
	var idx map[itemset.Key]bool // stays empty for ECUT
	var err error
	for _, id := range blocks {
		if pairs {
			if idx, err = s.loadPairIndex(id); err != nil {
				return nil, err
			}
		}
		clear(itemCache)
		clear(pairCache)
		for i, x := range sets {
			var empty bool
			lists, empty, err = s.coverLists(lists[:0], id, x, idx, itemCache, pairCache)
			if err != nil {
				return nil, fmt.Errorf("tidlist: %s block %d: %w", name, id, err)
			}
			if empty {
				continue // some component list empty: zero in this block
			}
			if len(lists) == 2 {
				totals[i] += pair.count(lists[0], lists[1])
				continue
			}
			var n int
			n, scratch = IntersectManyCount(lists, scratch)
			totals[i] += n
		}
	}
	return totals, nil
}

// coverLists appends to lists the TID-lists covering x in block id: a greedy
// pair matching over the materialized 2-itemsets, single-item lists for the
// rest. empty reports that some component list is empty, so x does not occur
// in the block.
func (s *Store) coverLists(lists []List, id blockseq.ID, x itemset.Itemset, idx map[itemset.Key]bool,
	itemCache map[itemset.Item]List, pairCache map[itemset.Key]List) (out []List, empty bool, err error) {

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
			if l, ok = pairCache[itemset.Key(pk)]; !ok {
				if l, _, err = s.PairList(id, itemset.Itemset{x[i], x[j]}); err != nil {
					return lists, false, err
				}
				pairCache[itemset.Key(pk)] = l
			}
			covered[j] = true
			matched = true
			break
		}
		if !matched {
			var ok bool
			if l, ok = itemCache[x[i]]; !ok {
				if l, err = s.ItemList(id, x[i]); err != nil {
					return lists, false, err
				}
				itemCache[x[i]] = l
			}
		}
		covered[i] = true
		if len(l) == 0 {
			return lists, true, nil
		}
		lists = append(lists, l)
	}
	return lists, false, nil
}
