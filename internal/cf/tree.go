package cf

import (
	"fmt"
	"math"
)

// TreeConfig parameterizes a CF-tree.
type TreeConfig struct {
	// Branching is the maximum number of entries in a non-leaf node (B in
	// ZRL96). Must be at least 2.
	Branching int
	// LeafEntries is the maximum number of entries in a leaf node (L).
	// Must be at least 2.
	LeafEntries int
	// Threshold is the initial absorption threshold T: a leaf entry absorbs
	// a CF only if the merged entry's diameter stays within T. Zero starts
	// the tree fully discriminating and lets rebuilds grow T.
	Threshold float64
	// MaxLeafEntriesTotal caps the total number of leaf entries (the
	// "tennis balls"); exceeding it triggers a rebuild with a larger
	// threshold, modelling BIRCH's fixed memory budget. Must be at least 2.
	MaxLeafEntriesTotal int
	// OutlierBuffering enables ZRL96's outlier treatment: during a rebuild,
	// sparse leaf entries (fewer points than OutlierMaxN) are parked in an
	// outlier buffer instead of reinserted; each later rebuild retries them
	// against the grown threshold, reabsorbing any that now fit a dense
	// region. Buffered entries are excluded from SubClusters but reported
	// by Outliers.
	OutlierBuffering bool
	// OutlierMaxN is the largest point count a leaf entry may have and
	// still be considered an outlier candidate. Defaults to 1.
	OutlierMaxN int
	// Metric selects the ZRL96 cluster distance used to pick the closest
	// entry while descending (default D0, centroid Euclidean).
	Metric Metric
}

// DefaultTreeConfig returns the configuration used by the experiments:
// branching 8, 16 leaf entries per node, 512 sub-clusters total.
func DefaultTreeConfig() TreeConfig {
	return TreeConfig{Branching: 8, LeafEntries: 16, MaxLeafEntriesTotal: 512}
}

func (c TreeConfig) validate() error {
	if c.Branching < 2 {
		return fmt.Errorf("cf: branching factor %d < 2", c.Branching)
	}
	if c.LeafEntries < 2 {
		return fmt.Errorf("cf: leaf entries %d < 2", c.LeafEntries)
	}
	if c.MaxLeafEntriesTotal < 2 {
		return fmt.Errorf("cf: max leaf entries total %d < 2", c.MaxLeafEntriesTotal)
	}
	if c.Threshold < 0 {
		return fmt.Errorf("cf: negative threshold %v", c.Threshold)
	}
	if c.OutlierMaxN < 0 {
		return fmt.Errorf("cf: negative outlier max %d", c.OutlierMaxN)
	}
	if !c.Metric.valid() {
		return fmt.Errorf("cf: unknown metric %d", int(c.Metric))
	}
	return nil
}

func (c TreeConfig) outlierMaxN() int {
	if c.OutlierMaxN == 0 {
		return 1
	}
	return c.OutlierMaxN
}

// Tree is a CF-tree: a height-balanced tree of cluster features. Leaf
// entries are the sub-clusters; interior entries summarize their subtrees.
type Tree struct {
	cfg        TreeConfig
	root       *node
	dim        int
	numLeafCFs int
	threshold  float64
	rebuilds   int
	points     int
	outliers   []CF
}

type node struct {
	leaf    bool
	entries []entry
}

type entry struct {
	cf    CF
	child *node // nil iff the owning node is a leaf
}

// NewTree creates an empty CF-tree.
func NewTree(cfg TreeConfig) (*Tree, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Tree{
		cfg:       cfg,
		root:      &node{leaf: true},
		threshold: cfg.Threshold,
	}, nil
}

// Threshold returns the current absorption threshold (grows on rebuilds).
func (t *Tree) Threshold() float64 { return t.threshold }

// Rebuilds returns how many times the tree was rebuilt with a larger
// threshold.
func (t *Tree) Rebuilds() int { return t.rebuilds }

// NumPoints returns the number of points inserted so far.
func (t *Tree) NumPoints() int { return t.points }

// NumSubClusters returns the current number of leaf entries.
func (t *Tree) NumSubClusters() int { return t.numLeafCFs }

// Insert adds one point, splitting and rebuilding as needed.
func (t *Tree) Insert(p Point) error {
	if t.dim == 0 {
		t.dim = len(p)
	} else if len(p) != t.dim {
		return fmt.Errorf("cf: point dimension %d, tree dimension %d", len(p), t.dim)
	}
	t.insertCF(NewCF(p))
	t.points++
	if t.numLeafCFs > t.cfg.MaxLeafEntriesTotal {
		t.rebuild()
	}
	return nil
}

// insertCF inserts a cluster feature (a point's CF or, during rebuilds, a
// whole sub-cluster).
func (t *Tree) insertCF(c CF) {
	extra := t.insert(t.root, c)
	if extra != nil {
		// Root split: grow the tree by one level.
		oldRoot := t.root
		left := entry{cf: sumEntries(oldRoot.entries), child: oldRoot}
		t.root = &node{leaf: false, entries: []entry{left, *extra}}
	}
}

// insert descends to the closest child, absorbing or adding at the leaf, and
// returns a new sibling entry when n split.
func (t *Tree) insert(n *node, c CF) *entry {
	if n.leaf {
		if len(n.entries) > 0 {
			e := &n.entries[t.closest(n.entries, c)]
			if e.cf.mergedDiameter(c) <= t.threshold {
				e.cf.Merge(c)
				return nil
			}
		}
		n.entries = append(n.entries, entry{cf: c})
		t.numLeafCFs++
		if len(n.entries) > t.cfg.LeafEntries {
			return t.split(n)
		}
		return nil
	}
	best := t.closest(n.entries, c)
	extra := t.insert(n.entries[best].child, c)
	if extra == nil {
		n.entries[best].cf.Merge(c)
		return nil
	}
	// The child split: part of its mass moved to the new sibling, so the
	// surviving child's entry is recomputed rather than incremented.
	n.entries[best].cf = sumEntries(n.entries[best].child.entries)
	n.entries = append(n.entries, *extra)
	if len(n.entries) > t.cfg.Branching {
		return t.split(n)
	}
	return nil
}

// closest returns the index of the entry nearest to c under the configured
// metric.
func (t *Tree) closest(entries []entry, c CF) int {
	best, bestD := 0, math.Inf(1)
	for i := range entries {
		d := t.cfg.Metric.Between(entries[i].cf, c)
		if d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// split divides an overflowing node around its two farthest entries and
// returns the entry for the new sibling; n keeps the first group.
func (t *Tree) split(n *node) *entry {
	seedA, seedB := farthestPair(n.entries)
	groupA := make([]entry, 0, len(n.entries))
	groupB := make([]entry, 0, len(n.entries))
	ca := n.entries[seedA].cf.Centroid()
	cb := n.entries[seedB].cf.Centroid()
	for i, e := range n.entries {
		switch {
		case i == seedA:
			groupA = append(groupA, e)
		case i == seedB:
			groupB = append(groupB, e)
		case Distance(e.cf.Centroid(), ca) <= Distance(e.cf.Centroid(), cb):
			groupA = append(groupA, e)
		default:
			groupB = append(groupB, e)
		}
	}
	n.entries = groupA
	sibling := &node{leaf: n.leaf, entries: groupB}
	return &entry{cf: sumEntries(groupB), child: sibling}
}

// farthestPair returns the indices of the two entries with maximum centroid
// distance (O(k²), k ≤ branching factor).
func farthestPair(entries []entry) (int, int) {
	bi, bj, bd := 0, 1, -1.0
	for i := 0; i < len(entries); i++ {
		ci := entries[i].cf.Centroid()
		for j := i + 1; j < len(entries); j++ {
			d := Distance(ci, entries[j].cf.Centroid())
			if d > bd {
				bi, bj, bd = i, j, d
			}
		}
	}
	return bi, bj
}

func sumEntries(entries []entry) CF {
	if len(entries) == 0 {
		return CF{}
	}
	acc := entries[0].cf.Clone()
	for _, e := range entries[1:] {
		acc.Merge(e.cf)
	}
	return acc
}

// rebuild raises the threshold and reinserts all leaf CFs, shrinking the
// tree — the BIRCH response to exhausting the memory budget. With outlier
// buffering enabled, sparse entries are parked instead of reinserted, and
// previously parked outliers are retried against the grown threshold.
func (t *Tree) rebuild() {
	leaves := t.SubClusters()
	newT := t.suggestThreshold(leaves)
	if newT <= t.threshold {
		newT = t.threshold*1.5 + 1e-9
	}
	t.threshold = newT
	t.reinsert(leaves)
	// If the heuristic threshold did not shrink the tree enough, keep
	// growing it geometrically; the loop terminates because a large enough
	// threshold absorbs everything into few entries.
	for t.numLeafCFs > t.cfg.MaxLeafEntriesTotal {
		leaves = t.SubClusters()
		t.threshold = t.threshold*1.5 + 1e-9
		t.reinsert(leaves)
	}
	t.rebuilds++
}

// reinsert rebuilds the tree from the given leaf CFs at the current
// threshold, applying the outlier policy.
func (t *Tree) reinsert(leaves []CF) {
	t.root = &node{leaf: true}
	t.numLeafCFs = 0
	if !t.cfg.OutlierBuffering {
		for _, c := range leaves {
			t.insertCF(c)
		}
		return
	}
	maxN := t.cfg.outlierMaxN()
	var parked []CF
	for _, c := range leaves {
		if c.N <= maxN {
			parked = append(parked, c)
			continue
		}
		t.insertCF(c)
	}
	// Retry old and new outliers: an entry that now fits within the grown
	// threshold of its closest dense region is reabsorbed.
	parked = append(parked, t.outliers...)
	t.outliers = t.outliers[:0]
	for _, c := range parked {
		if t.wouldAbsorb(c) {
			t.insertCF(c)
		} else {
			t.outliers = append(t.outliers, c)
		}
	}
}

// wouldAbsorb reports whether inserting c would merge into an existing leaf
// entry (rather than opening a new sparse entry).
func (t *Tree) wouldAbsorb(c CF) bool {
	n := t.root
	for !n.leaf {
		if len(n.entries) == 0 {
			return false
		}
		n = n.entries[t.closest(n.entries, c)].child
	}
	if len(n.entries) == 0 {
		return false
	}
	return n.entries[t.closest(n.entries, c)].cf.mergedDiameter(c) <= t.threshold
}

// Outliers returns the buffered outlier entries (empty unless
// OutlierBuffering is enabled).
func (t *Tree) Outliers() []CF {
	out := make([]CF, len(t.outliers))
	for i, c := range t.outliers {
		out[i] = c.Clone()
	}
	return out
}

// suggestThreshold estimates the next threshold as the average distance of
// each sub-cluster centroid to its nearest neighbour — merging typical
// nearest pairs roughly halves the leaf count.
func (t *Tree) suggestThreshold(leaves []CF) float64 {
	if len(leaves) < 2 {
		return t.threshold * 2
	}
	cents := make([]Point, len(leaves))
	for i, c := range leaves {
		cents[i] = c.Centroid()
	}
	var sum float64
	for i := range cents {
		best := math.Inf(1)
		for j := range cents {
			if i == j {
				continue
			}
			if d := Distance(cents[i], cents[j]); d < best {
				best = d
			}
		}
		sum += best
	}
	return sum / float64(len(cents))
}

// SubClusters returns a copy of all leaf cluster features — the set C the
// DEMON paper keeps in memory between blocks.
func (t *Tree) SubClusters() []CF {
	var out []CF
	var walk func(n *node)
	walk = func(n *node) {
		if n.leaf {
			for _, e := range n.entries {
				out = append(out, e.cf.Clone())
			}
			return
		}
		for _, e := range n.entries {
			walk(e.child)
		}
	}
	walk(t.root)
	return out
}

// Validate checks the CF-tree invariants: interior entries summarize their
// subtrees exactly, node sizes respect the configuration, and all leaves are
// at the same depth. Used by tests.
func (t *Tree) Validate() error {
	depths := make(map[int]bool)
	var walk func(n *node, depth int) (CF, error)
	walk = func(n *node, depth int) (CF, error) {
		if n.leaf {
			depths[depth] = true
			if len(n.entries) > t.cfg.LeafEntries {
				return CF{}, fmt.Errorf("cf: leaf with %d entries > %d", len(n.entries), t.cfg.LeafEntries)
			}
			return sumEntries(n.entries), nil
		}
		if len(n.entries) > t.cfg.Branching {
			return CF{}, fmt.Errorf("cf: interior node with %d entries > %d", len(n.entries), t.cfg.Branching)
		}
		acc := CF{}
		for _, e := range n.entries {
			sub, err := walk(e.child, depth+1)
			if err != nil {
				return CF{}, err
			}
			if sub.N != e.cf.N || math.Abs(sub.SS-e.cf.SS) > 1e-6*(1+math.Abs(sub.SS)) {
				return CF{}, fmt.Errorf("cf: interior entry out of sync: N %d vs %d", e.cf.N, sub.N)
			}
			acc = acc.Add(sub)
		}
		return acc, nil
	}
	total, err := walk(t.root, 0)
	if err != nil {
		return err
	}
	outlierN := 0
	for _, c := range t.outliers {
		outlierN += c.N
	}
	if total.N+outlierN != t.points {
		return fmt.Errorf("cf: tree summarizes %d points (+%d outliers), inserted %d",
			total.N, outlierN, t.points)
	}
	if len(depths) > 1 {
		return fmt.Errorf("cf: leaves at multiple depths %v", depths)
	}
	return nil
}
