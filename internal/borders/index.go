package borders

import "github.com/demon-mining/demon/internal/itemset"

// class is where a prefix-tree node of the index stands in the model.
type class uint8

const (
	untracked class = iota // a free node
	border                 // in NB⁻
	frequent               // in L
	fresh                  // in L since the current round of the update phase
)

// index holds a model's tracked family L ∪ NB⁻: one prefix tree over every
// tracked itemset, kept across maintenance steps, with the class and the
// support count of each set in vectors indexed by tree node. It is the
// family's only representation; the codec streams it and readers walk it.
//
// The tracked family is closed under prefixes (a tracked set has all its
// proper subsets frequent), so every node below the root is a tracked set,
// and tree order — a set before the sets it prefixes, siblings by item — is
// the order itemset.SortItemsets gives.
type index struct {
	tree *itemset.PrefixTree
	// Per node; grown with the tree.
	class []class
	count []int
	// frequent lists the nodes of L in tree order. L is a hundredth of the
	// family on market-basket data, and it is what queries read: they must
	// not walk the border. Relisted by a step that changed a class.
	frequent []int32
	// deltas is the detection phase's count vector, all zero between steps.
	deltas []int
	// Scratch reused across steps. The candidates of a round are cut from
	// arena; the next round overwrites them.
	nodes, marked []int32
	set, sub      itemset.Itemset
	items, arena  []itemset.Item
	cands         []itemset.Itemset
}

func newIndex() *index {
	return &index{tree: itemset.NewPrefixTree(nil)}
}

// clear stops tracking every set and keeps the memory: the tree's, the
// vectors' and the scratch's. The detection vector is zero between steps; it
// only loses its length.
func (ix *index) clear() {
	ix.tree.Clear()
	ix.class, ix.count, ix.frequent = ix.class[:0], ix.count[:0], ix.frequent[:0]
	ix.deltas = ix.deltas[:0]
}

// track starts tracking x and returns its node.
func (ix *index) track(x itemset.Itemset, count int, cl class) int32 {
	n, _ := ix.tree.Insert(x)
	for len(ix.class) < ix.tree.Cap() {
		ix.class = append(ix.class, untracked)
		ix.count = append(ix.count, 0)
	}
	ix.class[n], ix.count[n] = cl, count
	return n
}

// listFrequent rebuilds the frequent-node list with one walk of the tree.
func (ix *index) listFrequent() {
	ix.frequent = ix.frequent[:0]
	ix.tree.Walk(func(n int32, _ itemset.Itemset) {
		if ix.class[n] >= frequent {
			ix.frequent = append(ix.frequent, n)
		}
	})
}

// compareNodes orders two nodes as itemset.CompareItemsets orders their
// sets: tree order.
func (ix *index) compareNodes(a, b int32) int {
	ix.set, ix.sub = ix.tree.Itemset(a, ix.set), ix.tree.Itemset(b, ix.sub)
	return itemset.CompareItemsets(ix.set, ix.sub)
}

// evictAbove stops tracking every set that is one item larger than the set
// at one of the demoted nodes, with its subtree, whose sets contain a demoted
// set too. Before this round every subset of a tracked set was frequent, so
// these are exactly the tracked sets that now have a subset outside L — the
// demoted nodes themselves among them, when a subset was demoted with them;
// those are untracked on return.
func (ix *index) evictAbove(demoted []int32) {
	ix.marked = ix.marked[:0]
	for _, d := range demoted {
		ix.set = ix.tree.Itemset(d, ix.set)
		ix.marked = ix.tree.Supersets(ix.set, ix.marked)
	}
	for _, n := range ix.marked {
		if ix.class[n] == untracked {
			continue // went with the subtree of an earlier one
		}
		ix.nodes = ix.tree.Remove(n, ix.nodes[:0])
		for _, r := range ix.nodes {
			ix.class[r] = untracked
		}
	}
}

// candidates returns, sorted, every untracked itemset whose (len-1)-subsets
// are all frequent. The border is complete before a round, so such a set has
// a subset among the sets that became frequent in it, the fresh ones: the
// candidates are the extensions p ∪ {x} of a fresh p by a frequent item x.
// One with several fresh subsets is emitted from the last of them in subset
// order, the one without the rightmost item that leaves a fresh set: its
// prefix, when that is fresh. Each fresh set's run is sorted, so with the
// fresh nodes in tree order and fresh prefixes — every round of a model
// built from empty — the runs arrive sorted as a whole and the sort below
// is one linear pass. The fresh nodes are plain frequent ones afterwards.
// The sets and the slice are the index's scratch, valid until the next
// call.
func (ix *index) candidates(freshNodes []int32) []itemset.Itemset {
	ix.items = ix.items[:0]
	ix.nodes = ix.tree.Supersets(nil, ix.nodes[:0])
	for _, n := range ix.nodes {
		if ix.class[n] >= frequent {
			ix.items = append(ix.items, ix.tree.Itemset(n, ix.set)[0])
		}
	}
	ix.arena, ix.cands = ix.arena[:0], ix.cands[:0]
	for _, p := range freshNodes {
		ix.set = ix.tree.Itemset(p, ix.set)
		for _, x := range ix.items {
			at, dup := 0, false
			for at < len(ix.set) && ix.set[at] <= x {
				dup = dup || ix.set[at] == x
				at++
			}
			if dup {
				continue
			}
			c := append(append(append(ix.sub[:0], ix.set[:at]...), x), ix.set[at:]...)
			ix.sub = c
			if ix.generates(c, at) {
				start := len(ix.arena)
				ix.arena = append(ix.arena, c...)
				ix.cands = append(ix.cands, ix.arena[start:len(ix.arena):len(ix.arena)])
			}
		}
	}
	for _, p := range freshNodes {
		ix.class[p] = frequent
	}
	// The order decides the sequence of TID-list reads, and tree order
	// numbers the nodes the sets are tracked at.
	itemset.SortItemsets(ix.cands)
	return ix.cands
}

// generates reports whether c, which is a fresh set plus the item at index
// at, is a candidate this fresh set emits: untracked, every (len-1)-subset
// frequent, and none of the subsets without an item after index at fresh.
func (ix *index) generates(c itemset.Itemset, at int) bool {
	if ix.tree.Lookup(c, -1) >= 0 {
		return false
	}
	for skip := range c {
		n := ix.tree.Lookup(c, skip)
		if n < 0 || ix.class[n] < frequent || (skip > at && ix.class[n] == fresh) {
			return false
		}
	}
	return true
}
