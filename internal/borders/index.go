package borders

import (
	"fmt"

	"github.com/demon-mining/demon/internal/itemset"
)

// class is where a prefix-tree node of the index stands in the model.
type class uint8

const (
	untracked class = iota // a free node
	border                 // in NB⁻
	frequent               // in L
	fresh                  // in L since the current round of the update phase
)

// index is the resident form of a model's tracked family L ∪ NB⁻: one prefix
// tree over every tracked itemset, kept across maintenance steps, with the
// class, the support count and the lattice key of each set in vectors indexed
// by tree node. It is derived state — the Lattice remains the model's
// exchange form and every change made here is written through to its maps, so
// readers and the codecs never see the index. It is built from the lattice
// the first time a maintenance step needs it and is never serialised.
//
// The tracked family is closed under prefixes (a tracked set has all its
// proper subsets frequent), so every node below the root is a tracked set.
type index struct {
	lat  *itemset.Lattice
	tree *itemset.PrefixTree
	// Per node; grown with the tree.
	class []class
	count []int
	key   []itemset.Key // interned once, so map writes do not re-encode
	// deltas[s] is shard s's detection count vector, all zero between steps.
	deltas [][]int
	// Scratch reused across steps.
	nodes, marked []int32
	set, sub      itemset.Itemset
}

// index returns the model's index, building it when the model has none yet
// or its lattice was replaced.
func (m *Model) index() *index {
	if m.idx == nil || m.idx.lat != m.Lattice {
		m.idx = newIndex(m.Lattice)
	}
	return m.idx
}

func newIndex(l *itemset.Lattice) *index {
	ix := &index{lat: l, tree: itemset.NewPrefixTree(nil), deltas: make([][]int, 1)}
	for k, c := range l.Frequent {
		ix.insert(k.Itemset(), k, c, frequent)
	}
	for k, c := range l.Border {
		ix.insert(k.Itemset(), k, c, border)
	}
	return ix
}

// insert starts tracking x in the index alone and returns its node.
func (ix *index) insert(x itemset.Itemset, k itemset.Key, count int, cl class) int32 {
	n, _ := ix.tree.Insert(x)
	for len(ix.class) < ix.tree.Cap() {
		ix.class = append(ix.class, untracked)
		ix.count = append(ix.count, 0)
		ix.key = append(ix.key, "")
	}
	ix.class[n], ix.count[n], ix.key[n] = cl, count, k
	return n
}

// track starts tracking x, whose key is k, in the index and the lattice.
func (ix *index) track(x itemset.Itemset, k itemset.Key, count int, cl class) int32 {
	n := ix.insert(x, k, count, cl)
	ix.publish(n)
	return n
}

// publish writes node n's count to the lattice map of its class.
func (ix *index) publish(n int32) {
	if ix.class[n] == border {
		ix.lat.Border[ix.key[n]] = ix.count[n]
	} else {
		ix.lat.Frequent[ix.key[n]] = ix.count[n]
	}
}

// shardDeltas returns one zeroed count vector per shard.
func (ix *index) shardDeltas(shards int) [][]int {
	for len(ix.deltas) < shards {
		ix.deltas = append(ix.deltas, nil)
	}
	for s, d := range ix.deltas[:shards] {
		if grow := ix.tree.Cap() - len(d); grow > 0 {
			ix.deltas[s] = append(d, make([]int, grow)...)
		}
	}
	return ix.deltas[:shards]
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
			if ix.class[r] == border {
				delete(ix.lat.Border, ix.key[r])
			}
			ix.class[r], ix.key[r] = untracked, ""
		}
	}
}

// candidates returns, sorted, every untracked itemset whose (len-1)-subsets
// are all frequent. The border is complete before a round, so such a set has
// a subset among the sets that became frequent in it, the fresh ones: the
// candidates are the extensions p ∪ {x} of a fresh p by a frequent item x.
// One with several fresh subsets is emitted from the first of them in
// subset order. The fresh nodes are plain frequent ones afterwards.
func (ix *index) candidates(freshNodes []int32) []itemset.Itemset {
	var items []itemset.Item
	ix.nodes = ix.tree.Supersets(nil, ix.nodes[:0])
	for _, n := range ix.nodes {
		if ix.class[n] >= frequent {
			items = append(items, ix.tree.Itemset(n, ix.set)[0])
		}
	}
	var out []itemset.Itemset
	for _, p := range freshNodes {
		ix.set = ix.tree.Itemset(p, ix.set)
		for _, x := range items {
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
				out = append(out, c.Clone())
			}
		}
	}
	for _, p := range freshNodes {
		ix.class[p] = frequent
	}
	itemset.SortItemsets(out)
	return out
}

// generates reports whether c, which is a fresh set plus the item at index
// at, is a candidate this fresh set emits: untracked, every (len-1)-subset
// frequent, and none of the subsets before index at fresh.
func (ix *index) generates(c itemset.Itemset, at int) bool {
	if ix.tree.Lookup(c, -1) >= 0 {
		return false
	}
	for skip := range c {
		n := ix.tree.Lookup(c, skip)
		if n < 0 || ix.class[n] < frequent || (skip < at && ix.class[n] == fresh) {
			return false
		}
	}
	return true
}

// CheckIndex verifies that the model's resident index, if it has one, and its
// lattice describe the same model: the same sets in the same classes with the
// same counts. A model without an index passes.
func (m *Model) CheckIndex() error {
	ix := m.idx
	if ix == nil || ix.lat != m.Lattice {
		return nil
	}
	l := m.Lattice
	tracked := 0
	for n, cl := range ix.class {
		if cl == untracked {
			continue
		}
		tracked++
		x := ix.tree.Itemset(int32(n), nil)
		if ix.key[n] != x.Key() || ix.tree.Lookup(x, -1) != int32(n) {
			return fmt.Errorf("borders: index node %d is %v under key %v", n, x, ix.key[n].Itemset())
		}
		in, other := l.Frequent, l.Border
		if cl == border {
			in, other = other, in
		}
		if c, ok := in[ix.key[n]]; !ok || c != ix.count[n] {
			return fmt.Errorf("borders: index has %v (class %d) at %d, lattice at %d (present %v)", x, cl, ix.count[n], c, ok)
		}
		if _, ok := other[ix.key[n]]; ok {
			return fmt.Errorf("borders: %v (class %d) is in the lattice's other map", x, cl)
		}
	}
	if tracked != len(l.Frequent)+len(l.Border) || tracked != ix.tree.Size() {
		return fmt.Errorf("borders: index tracks %d sets in a tree of %d, lattice %d+%d",
			tracked, ix.tree.Size(), len(l.Frequent), len(l.Border))
	}
	for _, d := range ix.deltas {
		for n, c := range d {
			if c != 0 {
				return fmt.Errorf("borders: detection vector holds %d at node %d between steps", c, n)
			}
		}
	}
	return nil
}
