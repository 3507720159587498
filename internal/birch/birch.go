// Package birch implements the BIRCH clustering algorithm (ZRL96) on top of
// the CF-tree of internal/cf, and the DEMON paper's incremental extension
// BIRCH+ (Section 3.1.2): the set of sub-clusters produced by phase 1 is
// kept in memory and insertion simply resumes when a new block arrives, so
// the clusters at any time t equal those of a from-scratch BIRCH run over
// D[1, t], at a fraction of the cost.
package birch

import (
	"fmt"
	"math"
	"sort"

	"github.com/demon-mining/demon/internal/cf"
	"github.com/demon-mining/demon/internal/obs"
)

// Cluster is one output cluster: a cluster feature summarizing its points.
type Cluster struct {
	CF cf.CF
}

// Centroid returns the cluster centroid.
func (c Cluster) Centroid() cf.Point { return c.CF.Centroid() }

// Model is a cluster model: the K clusters identified in the data, ordered
// deterministically (by centroid, lexicographically).
type Model struct {
	Clusters []Cluster
	// N is the total number of points the model summarizes.
	N int
}

// WSS returns the within-cluster sum of squared distances to the centroids,
// the distance-based criterion function optimized by the clustering: for one
// CF it is SS - N·‖centroid‖².
func (m *Model) WSS() float64 {
	var total float64
	for _, c := range m.Clusters {
		n := float64(c.CF.N)
		if n == 0 {
			continue
		}
		var norm2 float64
		for _, x := range c.CF.LS {
			mean := x / n
			norm2 += mean * mean
		}
		total += c.CF.SS - n*norm2
	}
	return total
}

// Centroids returns the cluster centroids, in model order.
func (m *Model) Centroids() []cf.Point {
	out := make([]cf.Point, len(m.Clusters))
	for i, c := range m.Clusters {
		out[i] = c.Centroid()
	}
	return out
}

// Nearest returns the index of the centroid nearest to p (the first such, -1
// if none is at a finite distance) — with a model's Centroids, the per-point
// labeling scan described at the end of Section 3.1.2.
func Nearest(cents []cf.Point, p cf.Point) int {
	best, bestD := -1, math.Inf(1)
	for i, c := range cents {
		if d := cf.Distance(c, p); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// Phase2 merges sub-clusters into k clusters: greedy agglomerative merging
// by centroid distance (the "cluster the tennis balls with your favourite
// algorithm" step), followed by a weighted k-means refinement over the
// sub-cluster centroids. Sub-clusters are never split, matching BIRCH's
// tolerance to slight phase-1 misassignments.
func Phase2(subs []cf.CF, k int) (*Model, error) { return phase2(nil, subs, k) }

// phase2 is Phase2 counting its work into reg (nil counts nothing).
func phase2(reg *obs.Registry, subs []cf.CF, k int) (*Model, error) {
	if k < 1 {
		return nil, fmt.Errorf("birch: k = %d < 1", k)
	}
	subs, n, cents, err := nonEmpty(subs)
	if err != nil {
		return nil, err
	}
	if len(subs) == 0 {
		return &Model{}, nil
	}
	k = min(k, len(subs))
	return refine(subs, cents, agglomerate(reg, subs, cents, k), k, n), nil
}

// nonEmpty returns the sub-clusters that hold points, the number of points
// they hold, and their centroids as one flat array of Dim floats each.
func nonEmpty(subs []cf.CF) (work []cf.CF, n int, cents []float64, err error) {
	for _, s := range subs {
		if s.N <= 0 {
			continue
		}
		if len(work) > 0 && s.Dim() != work[0].Dim() {
			return nil, 0, nil, fmt.Errorf("birch: sub-cluster dimension %d, expected %d", s.Dim(), work[0].Dim())
		}
		work = append(work, s)
		n += s.N
		for _, x := range s.LS {
			cents = append(cents, x/float64(s.N))
		}
	}
	return work, n, cents, nil
}

// nearest returns the first of rows lo…hi−1 of c (dim floats each) nearest
// to p, -1 if none is at a finite distance, with its squared distance and
// that square's root. It decides as a strict-< scan over the distances does,
// but compares squares and takes a root only for a row below the best one's
// square. That is exact: sqrt is monotone and correctly rounded, so s ≥ bestS
// gives sqrt(s) ≥ sqrt(bestS), a row that cannot win; one below may still
// round to the same root, and then it loses the tie as before.
func nearest(c []float64, dim, lo, hi int, p []float64) (best int, bestS, bestD float64) {
	best, bestS, bestD = -1, math.Inf(1), math.Inf(1)
	for j := lo; j < hi; j++ {
		if s := sqDist(p, c[j*dim:(j+1)*dim]); s < bestS {
			if d := math.Sqrt(s); d < bestD {
				best, bestS, bestD = j, s, d
			}
		}
	}
	return best, bestS, bestD
}

// sqDist returns the squared distance between a and b, summed term by term
// as cf.Distance(a, b) sums it before its root.
func sqDist(a, b []float64) float64 {
	b = b[:len(a)]
	var s float64
	for x, v := range a {
		d := v - b[x]
		s += d * d
	}
	return s
}

// neighbour is what a row knows of its nearest later row: the row j, that
// distance's square s and its root d. While exact is false it is only a
// bound: (d, j) is lexicographically at or below the nearest later row's
// (distance, index), and j need not name a row at all.
type neighbour struct {
	j     int
	s, d  float64
	exact bool
}

// agglomerate merges the closest pair of centroids until k are left and
// returns them, k rows of Dim floats. The pair merged is the lexicographically
// first (i, j), i < j, at the minimum distance. Each row i keeps its nearest
// neighbour among the later rows — the smallest such j — or a lexicographic
// lower bound on it (Müllner's generic linkage): a row whose neighbour a merge
// takes away keeps the old (distance, index) as a bound, and is rescanned only
// when that bound is the smallest at pick time, for the same merge sequence
// as a scan of all pairs. Centroid linkage is not reducible, so no NN-chain.
// Every decision is the one the distances make, taken on squares as nearest
// does.
func agglomerate(reg *obs.Registry, subs []cf.CF, cents []float64, k int) []float64 {
	n, dim := len(subs), subs[0].Dim()
	c := append([]float64(nil), cents...) // centroids, merged in place
	ls := make([]float64, 0, len(c))      // their linear sums
	cnt := make([]int, n)                 // and point counts
	for i, s := range subs {
		ls, cnt[i] = append(ls, s.LS...), s.N
	}
	var distances, rescans int64
	nb := make([]neighbour, n)
	scan := func(i int) {
		j, s, d := nearest(c, dim, i+1, n, c[i*dim:(i+1)*dim])
		nb[i] = neighbour{j, s, d, true}
		distances += int64(n - i - 1)
	}
	// offer makes row j i's neighbour if (d, j) is below what i keeps; the
	// row is then exact, every other later row being at or above the old
	// pair. A root is taken below the kept square, or where j would win a
	// tie.
	offer := func(i, j int) {
		distances++
		b := &nb[i]
		if s := sqDist(c[i*dim:(i+1)*dim], c[j*dim:(j+1)*dim]); s < b.s || j < b.j {
			if d := math.Sqrt(s); d < b.d || d == b.d && j < b.j {
				*b = neighbour{j, s, d, true}
			}
		}
	}
	for i := 0; i < n; i++ {
		scan(i)
	}
	for n > k {
		// The first row at the smallest bound is the first at the smallest
		// distance once that bound is exact, for no bound is above its
		// row's distance; an inexact one is rescanned and the pick taken
		// again. No finite distance at all: merge the first pair.
		bi, bj := 0, 1
		for {
			r, rd := -1, math.Inf(1)
			for i := range nb[:n] {
				if nb[i].d < rd {
					r, rd = i, nb[i].d
				}
			}
			if r < 0 {
				break
			}
			if nb[r].exact {
				bi, bj = r, nb[r].j
				break
			}
			rescans++
			scan(r)
		}
		// Merge bj into bi and move the last row into bj's place.
		last := n - 1
		cnt[bi] += cnt[bj]
		for x := 0; x < dim; x++ {
			ls[bi*dim+x] += ls[bj*dim+x]
			c[bi*dim+x] = ls[bi*dim+x] / float64(cnt[bi])
		}
		copy(ls[bj*dim:(bj+1)*dim], ls[last*dim:n*dim])
		copy(c[bj*dim:(bj+1)*dim], c[last*dim:n*dim])
		cnt[bj] = cnt[last]
		n = last
		for i := 0; i < n; i++ {
			b := &nb[i]
			switch {
			case i == bi || i == bj:
				rescans++
				scan(i)
				continue
			case b.j == bi || b.j == bj || b.j == last && bj < i:
				// The neighbour is gone. Every later row left in place was
				// at least as far, with ties going to the higher index, so
				// the old (d, j) bounds them all.
				b.exact = false
			case b.j == last:
				// The last row moved to bj, still after i. Every row between
				// i and the last was farther, or it would have been kept
				// instead, so the moved row stays the neighbour (or the
				// bound, now at a lower index, stays a bound).
				b.j = bj
			}
			// Only positions bi and bj changed. The moved row was at least
			// as far at the last index; at bj it can win only a tie, where
			// bj is below the neighbour.
			if i < bi {
				offer(i, bi)
			}
			if i < bj && bj < n && bj < b.j {
				offer(i, bj)
			}
		}
	}
	reg.Counter("birch.phase2.distances").Add(distances)
	reg.Counter("birch.phase2.rescans").Add(rescans)
	return c[:k*dim]
}

// refine runs weighted k-means over the sub-clusters (all non-empty, cents
// their centroids, n their points) from the k given seeds (Dim floats each,
// moved in place) and materializes the final model. Sub-clusters move
// atomically, matching BIRCH's tolerance to slight phase-1 misassignments.
func refine(subs []cf.CF, cents, seeds []float64, k, n int) *Model {
	dim := subs[0].Dim()
	assign := make([]int, len(subs))
	sums := make([]cf.CF, k)
	for iter := 0; iter < 10; iter++ {
		changed := false
		for i := range subs {
			best, _, _ := nearest(seeds, dim, 0, k, cents[i*dim:(i+1)*dim])
			if best = max(0, best); assign[i] != best {
				assign[i], changed = best, true
			}
		}
		if iter > 0 && !changed {
			break
		}
		// Recompute seeds as weighted means; empty seeds keep their spot.
		for j := range sums {
			sums[j].N = 0
		}
		for i, s := range subs {
			sums[assign[i]].Merge(s)
		}
		for j, s := range sums {
			if s.N > 0 {
				for x, v := range s.LS {
					seeds[j*dim+x] = v / float64(s.N)
				}
			}
		}
	}

	// Materialize the final clusters from the assignment.
	m := &Model{N: n}
	final := make([]cf.CF, k)
	for i, s := range subs {
		final[assign[i]].Merge(s)
	}
	for _, s := range final {
		if s.N > 0 {
			m.Clusters = append(m.Clusters, Cluster{CF: s})
		}
	}
	sortClusters(m.Clusters)
	return m
}

func sortClusters(cs []Cluster) {
	sort.Slice(cs, func(i, j int) bool {
		a, b := cs[i].Centroid(), cs[j].Centroid()
		for d := range a {
			if a[d] != b[d] {
				return a[d] < b[d]
			}
		}
		return false
	})
}

// Config parameterizes a BIRCH run.
type Config struct {
	// Tree is the CF-tree configuration of phase 1.
	Tree cf.TreeConfig
	// K is the user-specified number of clusters for phase 2.
	K int
	// Workers has no effect: phase 2 is serial (kept for benchmark/miners.go).
	Workers int
}

// DefaultConfig returns the configuration used by the experiments.
func DefaultConfig(k int) Config {
	return Config{Tree: cf.DefaultTreeConfig(), K: k}
}

// Run executes non-incremental BIRCH over the given point sets: phase 1
// builds a fresh CF-tree over all points, phase 2 merges the sub-clusters.
// This is the baseline that re-clusters the entire database whenever a new
// block arrives (Figure 8).
func Run(cfg Config, pointSets ...[]cf.Point) (*Model, error) {
	tree, err := cf.NewTree(cfg.Tree)
	if err != nil {
		return nil, err
	}
	for _, pts := range pointSets {
		for _, p := range pts {
			if err := tree.Insert(p); err != nil {
				return nil, err
			}
		}
	}
	return Phase2(tree.SubClusters(), cfg.K)
}

// Plus is BIRCH+: the incrementally maintained clustering model. The CF-tree
// (equivalently, the set of sub-clusters Ct) stays resident; AddBlock
// resumes phase 1 on the new block only, and Clusters invokes the cheap
// phase 2 on demand.
type Plus struct {
	cfg  Config
	tree *cf.Tree
}

// NewPlus creates an empty BIRCH+ maintainer.
func NewPlus(cfg Config) (*Plus, error) {
	tree, err := cf.NewTree(cfg.Tree)
	if err != nil {
		return nil, err
	}
	if cfg.K < 1 {
		return nil, fmt.Errorf("birch: k = %d < 1", cfg.K)
	}
	return &Plus{cfg: cfg, tree: tree}, nil
}

// AddBlock scans the new block's points into the resident CF-tree — the
// single scan that gives BIRCH+ its small response time.
func (p *Plus) AddBlock(pts []cf.Point) error {
	reg := obs.Default()
	span := reg.Timer("birch.insert.ns").Start()
	for _, pt := range pts {
		if err := p.tree.Insert(pt); err != nil {
			span.End()
			return err
		}
	}
	span.EndObserving(reg.Counter("birch.insert.points"), int64(len(pts)))
	p.observeTree(reg)
	return nil
}

// observeTree refreshes the CF-tree size gauges.
func (p *Plus) observeTree(reg *obs.Registry) {
	if !reg.Enabled() {
		return
	}
	reg.Gauge("birch.points").Set(int64(p.tree.NumPoints()))
	reg.Gauge("birch.subclusters").Set(int64(p.tree.NumSubClusters()))
	reg.Gauge("birch.rebuilds").Set(int64(p.tree.Rebuilds()))
}

// Clusters runs phase 2 on the current sub-clusters and returns the model
// on all data added so far.
func (p *Plus) Clusters() (*Model, error) {
	reg := obs.Default()
	span := reg.Timer("birch.phase2.ns").Start()
	defer span.End()
	return phase2(reg, p.tree.SubClusters(), p.cfg.K)
}

// NumPoints returns the number of points absorbed so far.
func (p *Plus) NumPoints() int { return p.tree.NumPoints() }

// NumSubClusters returns the size of the resident sub-cluster set.
func (p *Plus) NumSubClusters() int { return p.tree.NumSubClusters() }
