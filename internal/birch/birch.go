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
	"math/rand"
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
	seeds := agglomerate(reg, subs, cents, min(k, len(subs)))
	return refine(subs, cents, seeds, n), nil
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

// agglomerate merges the closest pair of centroids until k are left and
// returns them. The pair merged is the lexicographically first (i, j), i < j,
// at the minimum distance. Each row i caches its nearest neighbour among the
// later rows — the smallest such j, found with a strict < — so the pick is
// the first row at the global minimum, and after a merge only the rows that
// lost their neighbour are rescanned: O(n) distances per merge where a scan
// of all pairs takes O(n²), for the same merge sequence (Anderberg's cached
// nearest neighbours; centroid linkage is not reducible, so no NN-chain).
func agglomerate(reg *obs.Registry, subs []cf.CF, cents []float64, k int) []cf.Point {
	n, dim := len(subs), subs[0].Dim()
	c := append([]float64(nil), cents...) // centroids, merged in place
	ls := make([]float64, 0, len(c))      // their linear sums
	cnt := make([]int, n)                 // and point counts
	for i, s := range subs {
		ls, cnt[i] = append(ls, s.LS...), s.N
	}
	var distances, rescans int64
	dist := func(i, j int) float64 {
		distances++
		var s float64
		for x, a := range c[i*dim : (i+1)*dim] {
			d := a - c[j*dim+x]
			s += d * d
		}
		return math.Sqrt(s)
	}
	nn, nnd := make([]int, n), make([]float64, n)
	scan := func(i int) {
		nn[i], nnd[i] = -1, math.Inf(1)
		for j := i + 1; j < n; j++ {
			if d := dist(i, j); d < nnd[i] {
				nn[i], nnd[i] = j, d
			}
		}
	}
	for i := 0; i < n; i++ {
		scan(i)
	}
	for n > k {
		bi, bj, bd := 0, 1, math.Inf(1) // no finite distance at all: merge the first pair
		for i, d := range nnd[:n] {
			if d < bd {
				bi, bj, bd = i, nn[i], d
			}
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
			if i == bi || i == bj || nn[i] == bi || nn[i] == bj || nn[i] == last {
				rescans++
				scan(i)
				continue
			}
			// Only positions bi and bj changed; a tie goes to the lower index.
			for _, j := range [2]int{bi, bj} {
				if i < j && j < n {
					if d := dist(i, j); d < nnd[i] || d == nnd[i] && j < nn[i] {
						nn[i], nnd[i] = j, d
					}
				}
			}
		}
	}
	reg.Counter("birch.phase2.distances").Add(distances)
	reg.Counter("birch.phase2.rescans").Add(rescans)
	seeds := make([]cf.Point, k)
	for j := range seeds {
		seeds[j] = c[j*dim : (j+1)*dim]
	}
	return seeds
}

// refine runs weighted k-means over the sub-clusters (all non-empty, cents
// their centroids, n their points) from the given seeds and materializes the
// final model. Sub-clusters move atomically, matching BIRCH's tolerance to
// slight phase-1 misassignments.
func refine(subs []cf.CF, cents []float64, seeds []cf.Point, n int) *Model {
	dim := subs[0].Dim()
	assign := make([]int, len(subs))
	sums := make([]cf.CF, len(seeds))
	for iter := 0; iter < 10; iter++ {
		changed := false
		for i := range subs {
			if best := max(0, Nearest(seeds, cents[i*dim:(i+1)*dim])); assign[i] != best {
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
		for j := range seeds {
			if sums[j].N > 0 {
				seeds[j] = sums[j].Centroid()
			}
		}
	}

	// Materialize the final clusters from the assignment.
	m := &Model{N: n}
	final := make([]cf.CF, len(seeds))
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

// Phase2KMeans is the alternative phase 2 the paper alludes to ("cluster
// these tennis balls using one's own favorite clustering algorithm, e.g.,
// K-Means"): weighted k-means over the sub-clusters with deterministic,
// seeded k-means++ initialization.
func Phase2KMeans(subs []cf.CF, k int, seed int64) (*Model, error) {
	if k < 1 {
		return nil, fmt.Errorf("birch: k = %d < 1", k)
	}
	work, n, flat, err := nonEmpty(subs)
	if err != nil {
		return nil, err
	}
	if len(work) == 0 {
		return &Model{}, nil
	}
	k = min(k, len(work))

	// k-means++ seeding over sub-cluster centroids, weighted by mass.
	rng := rand.New(rand.NewSource(seed))
	dim := work[0].Dim()
	cents := make([]cf.Point, len(work))
	for i := range cents {
		cents[i] = flat[i*dim : (i+1)*dim]
	}
	seeds := make([]cf.Point, 0, k)
	first := weightedPick(rng, work, func(i int) float64 { return float64(work[i].N) })
	seeds = append(seeds, cents[first])
	d2 := make([]float64, len(work))
	for len(seeds) < k {
		var total float64
		for i, c := range cents {
			best := math.Inf(1)
			for _, s := range seeds {
				if d := cf.Distance(c, s); d < best {
					best = d
				}
			}
			d2[i] = best * best * float64(work[i].N)
			total += d2[i]
		}
		if total == 0 {
			break // all centroids coincide with seeds
		}
		next := weightedPick(rng, work, func(i int) float64 { return d2[i] })
		seeds = append(seeds, cents[next])
	}
	return refine(work, flat, seeds, n), nil
}

// weightedPick draws an index proportionally to the given weights.
func weightedPick(rng *rand.Rand, subs []cf.CF, weight func(i int) float64) int {
	var total float64
	for i := range subs {
		total += weight(i)
	}
	u := rng.Float64() * total
	acc := 0.0
	for i := range subs {
		acc += weight(i)
		if u <= acc {
			return i
		}
	}
	return len(subs) - 1
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
