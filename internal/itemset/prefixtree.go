package itemset

// PrefixTree is the candidate-counting structure of Mueller (Mue95) used by
// the BORDERS update phase: candidates are stored along item-ordered paths
// and one pass over the transactions increments the count of every candidate
// contained in each transaction. Counting a candidate set this way while
// scanning the entire selected dataset is what the paper calls PT-Scan.
//
// The tree is flat: every node lives in one slice and is named by its index,
// a node's children are one range sorted by item, and the root fans out
// through a table dense in the item. Counts live apart from the structure,
// in a vector indexed by node, so goroutines counting disjoint transactions
// share one tree read-only and each own only a vector (CountInto). The tree
// is also dynamic — Insert, Lookup, Supersets and Remove — which is what lets
// BORDERS keep one resident over its tracked family instead of building one
// per block.
type PrefixTree struct {
	nodes []ptNode // nodes[0] is the root
	// ranges[nodes[n].kids] holds n's children sorted by item; ranges[0] is
	// the empty range every leaf shares, so a node costs 16 bytes and the
	// counting loop's working set stays small.
	ranges [][]ptEdge
	dense  []int32 // dense[item] is the root's child for item, 0 if none
	deep   []int32 // deep[item] counts the nodes below depth 1 labelled item
	free   []int32 // removed nodes, reused by Insert
	counts []int   // the tree's own count vector, see ownCounts
	size   int
}

type ptNode struct {
	parent   int32
	item     Item
	kids     int32 // index into ranges
	terminal bool
}

type ptEdge struct {
	item Item
	node int32
}

// denseRootLimit bounds the root table: items at or above it are found by
// searching the root's sorted children like any other node's, so an outlying
// item identifier costs a search instead of a table as large as the
// identifier.
const denseRootLimit = 1 << 16

// NewPrefixTree builds a tree over the candidate itemsets. Duplicate
// candidates are collapsed.
func NewPrefixTree(cands []Itemset) *PrefixTree {
	t := &PrefixTree{nodes: make([]ptNode, 1, len(cands)+1), ranges: make([][]ptEdge, 1)}
	for _, c := range cands {
		t.Insert(c)
	}
	return t
}

// searchEdges returns the first index whose item is >= it.
func searchEdges(kids []ptEdge, it Item) int {
	lo, hi := 0, len(kids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if kids[mid].item < it {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// child returns n's child for item it, 0 if there is none (the root is
// nobody's child).
func (t *PrefixTree) child(n int32, it Item) int32 {
	if n == 0 && uint32(it) < uint32(len(t.dense)) {
		return t.dense[it]
	}
	kids := t.ranges[t.nodes[n].kids]
	if i := searchEdges(kids, it); i < len(kids) && kids[i].item == it {
		return kids[i].node
	}
	return 0
}

// Insert adds the candidate c and returns its node, which names c in every
// count vector until c is removed; added is false when c was already a
// candidate. Node numbers of removed candidates are reused, so Cap stays
// proportional to the live tree.
func (t *PrefixTree) Insert(c Itemset) (node int32, added bool) {
	n := int32(0)
	for _, it := range c {
		next := t.child(n, it)
		if next == 0 {
			next = t.newNode(n, it)
		}
		n = next
	}
	if t.nodes[n].terminal {
		return n, false
	}
	t.nodes[n].terminal = true
	t.size++
	return n, true
}

func (t *PrefixTree) newNode(parent int32, it Item) int32 {
	var n int32
	if last := len(t.free) - 1; last >= 0 {
		n, t.free = t.free[last], t.free[:last]
		// A reused node keeps the range it had, emptied by release.
		t.nodes[n].parent, t.nodes[n].item = parent, it
	} else {
		n = int32(len(t.nodes))
		t.nodes = append(t.nodes, ptNode{parent: parent, item: it})
	}
	if t.nodes[parent].kids == 0 {
		t.nodes[parent].kids = int32(len(t.ranges))
		if k := len(t.ranges); k < cap(t.ranges) {
			t.ranges = t.ranges[:k+1] // a range Clear emptied, its array kept
		} else {
			t.ranges = append(t.ranges, nil)
		}
	}
	kids := t.ranges[t.nodes[parent].kids]
	i := searchEdges(kids, it)
	kids = append(kids, ptEdge{})
	copy(kids[i+1:], kids[i:])
	kids[i] = ptEdge{item: it, node: n}
	t.ranges[t.nodes[parent].kids] = kids
	if uint32(it) < denseRootLimit {
		for len(t.dense) <= int(it) {
			t.dense = append(t.dense, 0)
			t.deep = append(t.deep, 0)
		}
		if parent == 0 {
			t.dense[it] = n
		} else {
			t.deep[it]++
		}
	}
	return n
}

// matchesBelowRoot reports whether some node below depth 1 is labelled it:
// only such items are worth carrying into the subtrees. Items outside the
// dense table always are.
func (t *PrefixTree) matchesBelowRoot(it Item) bool {
	return uint32(it) >= uint32(len(t.deep)) || t.deep[it] > 0
}

// Lookup returns the node of candidate c, or -1 when c is not a candidate.
// With skip >= 0 it looks up c without its item at index skip — the
// (len-1)-subset Apriori pruning asks about — without building the subset.
func (t *PrefixTree) Lookup(c Itemset, skip int) int32 {
	n := int32(0)
	for i, it := range c {
		if i == skip {
			continue
		}
		if n = t.child(n, it); n == 0 {
			return -1
		}
	}
	if !t.nodes[n].terminal {
		return -1
	}
	return n
}

// Supersets appends to out the node of every candidate that is c plus one
// item, and returns the extended slice.
func (t *PrefixTree) Supersets(c Itemset, out []int32) []int32 {
	n := int32(0)
	for j := 0; ; j++ {
		// n is the node of c[:j]; the extra item goes at position j.
		for _, e := range t.ranges[t.nodes[n].kids] {
			if j < len(c) && e.item >= c[j] {
				break
			}
			m := e.node
			for _, it := range c[j:] {
				if m = t.child(m, it); m == 0 {
					break
				}
			}
			if m != 0 && t.nodes[m].terminal {
				out = append(out, m)
			}
		}
		if j == len(c) {
			return out
		}
		if n = t.child(n, c[j]); n == 0 {
			return out
		}
	}
}

// Remove deletes the candidate at node n together with every candidate
// extending it (its subtree), appending the node of each removed candidate to
// removed. The nodes stay valid as count-vector indices until the next
// Insert reuses them.
func (t *PrefixTree) Remove(n int32, removed []int32) []int32 {
	kids := &t.ranges[t.nodes[t.nodes[n].parent].kids]
	i := searchEdges(*kids, t.nodes[n].item)
	*kids = append((*kids)[:i], (*kids)[i+1:]...)
	if t.nodes[n].parent == 0 && uint32(t.nodes[n].item) < uint32(len(t.dense)) {
		t.dense[t.nodes[n].item] = 0
	}
	return t.release(n, removed)
}

func (t *PrefixTree) release(n int32, removed []int32) []int32 {
	if k := t.nodes[n].kids; k != 0 {
		for _, e := range t.ranges[k] {
			removed = t.release(e.node, removed)
		}
		t.ranges[k] = t.ranges[k][:0]
	}
	if t.nodes[n].terminal {
		t.nodes[n].terminal = false
		t.size--
		removed = append(removed, n)
	}
	if int(n) < len(t.counts) {
		t.counts[n] = 0
	}
	if it := t.nodes[n].item; t.nodes[n].parent != 0 && uint32(it) < uint32(len(t.deep)) {
		t.deep[it]--
	}
	t.free = append(t.free, n)
	return removed
}

// Itemset returns the candidate at node n, written over buf.
func (t *PrefixTree) Itemset(n int32, buf Itemset) Itemset {
	buf = buf[:0]
	for ; n != 0; n = t.nodes[n].parent {
		buf = append(buf, t.nodes[n].item)
	}
	for i, j := 0, len(buf)-1; i < j; i, j = i+1, j-1 {
		buf[i], buf[j] = buf[j], buf[i]
	}
	return buf
}

// Walk calls fn with the node and the itemset of every candidate in
// lexicographic order, a set before the sets it is a prefix of — the order
// SortItemsets gives. The itemset is overwritten by the next call.
func (t *PrefixTree) Walk(fn func(n int32, x Itemset)) {
	// Siblings write their item over one another at their depth, so the
	// buffer is allocated once, not once per node.
	t.walk(0, make(Itemset, 0, 16), fn)
}

func (t *PrefixTree) walk(n int32, x Itemset, fn func(int32, Itemset)) {
	if t.nodes[n].terminal {
		fn(n, x)
	}
	for _, e := range t.ranges[t.nodes[n].kids] {
		t.walk(e.node, append(x, e.item), fn)
	}
}

// Size returns the number of distinct candidates in the tree.
func (t *PrefixTree) Size() int { return t.size }

// Cap returns the length a count vector for this tree must have: one more
// than the largest node number handed out so far.
func (t *PrefixTree) Cap() int { return len(t.nodes) }

// CountTx increments, in the tree's own count vector, the count of every
// candidate contained in tx.
func (t *PrefixTree) CountTx(tx Transaction) { t.CountInto(t.ownCounts(), tx) }

// ownCounts returns the tree's own count vector, grown to cover every node.
// It is made on first use: a tree counted only through CountInto has none.
func (t *PrefixTree) ownCounts() []int {
	if d := len(t.nodes) - len(t.counts); d > 0 {
		t.counts = append(t.counts, make([]int, d)...)
	}
	return t.counts
}

// CountInto increments counts[n] for every candidate, named by its node n,
// contained in tx; len(counts) must be at least Cap. It only reads the tree,
// so concurrent calls with distinct vectors are safe. Nodes that are a
// candidate's prefix without being one are counted too; their entries mean
// nothing.
func (t *PrefixTree) CountInto(counts []int, tx Transaction) {
	// One pass over the root's table, which also drops the items no deeper
	// node is labelled with — in a BORDERS family, the infrequent ones — so
	// the subtree searches only carry items that can match.
	var itemBuf [32]Item
	var startBuf [32]struct{ kids, from int32 }
	below, starts := itemBuf[:0], startBuf[:0]
	for _, it := range tx.Items {
		if t.matchesBelowRoot(it) {
			below = append(below, it)
		}
		if c := t.child(0, it); c != 0 {
			counts[c]++
			if k := t.nodes[c].kids; k != 0 {
				starts = append(starts, struct{ kids, from int32 }{k, int32(len(below))})
			}
		}
	}
	for _, s := range starts {
		if int(s.from) < len(below) {
			t.countBelow(t.ranges[s.kids], below[s.from:], counts)
		}
	}
}

// PrefixCount counts the candidates over txs — the PT-Scan inner loop — and
// returns the counts by candidate position; a candidate listed twice is
// counted at both positions.
func PrefixCount(cands []Itemset, txs []Transaction) []int {
	tree := NewPrefixTree(nil)
	nodes := make([]int32, len(cands))
	for i, c := range cands {
		nodes[i], _ = tree.Insert(c)
	}
	counts := make([]int, tree.Cap())
	for _, tx := range txs {
		tree.CountInto(counts, tx)
	}
	out := make([]int, len(cands))
	for i, n := range nodes {
		out[i] = counts[n]
	}
	return out
}

// countBelow matches the sorted remaining items against one sorted child
// range, narrowing the range as it goes.
func (t *PrefixTree) countBelow(kids []ptEdge, items Itemset, counts []int) {
	for i, it := range items {
		kids = kids[searchEdges(kids, it):]
		if len(kids) == 0 {
			return
		}
		if kids[0].item != it {
			continue
		}
		c := kids[0].node
		counts[c]++
		if i+1 == len(items) {
			return
		}
		if k := t.nodes[c].kids; k != 0 {
			t.countBelow(t.ranges[k], items[i+1:], counts)
		}
		kids = kids[1:]
	}
}

// Counts returns the support count of every candidate, keyed by itemset key.
func (t *PrefixTree) Counts() map[Key]int {
	out, counts := make(map[Key]int, t.size), t.ownCounts()
	t.Walk(func(n int32, x Itemset) { out[x.Key()] = counts[n] })
	return out
}

// Reset zeroes all candidate counts, keeping the structure.
func (t *PrefixTree) Reset() { clear(t.counts) }

// Clear removes every candidate, keeping the memory: the node slice, each
// child range's array, the root tables and the count vector are emptied, not
// released. Inserts into a cleared tree hand out the node numbers a new tree
// would.
func (t *PrefixTree) Clear() {
	for k := range t.ranges {
		t.ranges[k] = t.ranges[k][:0]
	}
	t.ranges = t.ranges[:1]
	t.nodes = t.nodes[:1]
	t.nodes[0] = ptNode{}
	clear(t.dense)
	clear(t.deep)
	t.free = t.free[:0]
	t.counts = t.counts[:0]
	t.size = 0
}
