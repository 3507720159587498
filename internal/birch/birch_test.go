package birch

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/demon-mining/demon/internal/cf"
	"github.com/demon-mining/demon/internal/diskio"
)

// gaussianBlobs generates n points around the given centers with unit noise.
func gaussianBlobs(rng *rand.Rand, centers []cf.Point, n int, sigma float64) []cf.Point {
	pts := make([]cf.Point, n)
	for i := range pts {
		c := centers[i%len(centers)]
		p := make(cf.Point, len(c))
		for d := range p {
			p[d] = c[d] + rng.NormFloat64()*sigma
		}
		pts[i] = p
	}
	return pts
}

// matchCenters checks every model centroid sits within tol of a distinct
// true center.
func matchCenters(t *testing.T, m *Model, centers []cf.Point, tol float64) {
	t.Helper()
	if len(m.Clusters) != len(centers) {
		t.Fatalf("found %d clusters, want %d", len(m.Clusters), len(centers))
	}
	used := make([]bool, len(centers))
	for _, c := range m.Clusters {
		cent := c.Centroid()
		best, bestD := -1, math.Inf(1)
		for i, truth := range centers {
			if used[i] {
				continue
			}
			if d := cf.Distance(cent, truth); d < bestD {
				best, bestD = i, d
			}
		}
		if best < 0 || bestD > tol {
			t.Fatalf("centroid %v matches no remaining true center (best %v)", cent, bestD)
		}
		used[best] = true
	}
}

func TestRunRecoversWellSeparatedClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	centers := []cf.Point{{0, 0}, {50, 0}, {0, 50}, {50, 50}}
	pts := gaussianBlobs(rng, centers, 2000, 1.0)
	m, err := Run(DefaultConfig(4), pts)
	if err != nil {
		t.Fatal(err)
	}
	matchCenters(t, m, centers, 1.0)
	if m.N != 2000 {
		t.Fatalf("model N = %d, want 2000", m.N)
	}
}

// TestPlusMatchesFromScratch is the Section 3.1.2 claim: at any time t the
// BIRCH+ clusters equal a from-scratch BIRCH run over D[1, t] — here checked
// as recovering the same true centers with comparable criterion value.
func TestPlusMatchesFromScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	centers := []cf.Point{{0, 0, 0}, {40, 0, 0}, {0, 40, 0}}
	cfg := DefaultConfig(3)
	plus, err := NewPlus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var all []cf.Point
	for step := 0; step < 4; step++ {
		blk := gaussianBlobs(rng, centers, 600, 1.0)
		all = append(all, blk...)
		if err := plus.AddBlock(blk); err != nil {
			t.Fatal(err)
		}

		inc, err := plus.Clusters()
		if err != nil {
			t.Fatal(err)
		}
		scratch, err := Run(cfg, all)
		if err != nil {
			t.Fatal(err)
		}
		matchCenters(t, inc, centers, 1.0)
		matchCenters(t, scratch, centers, 1.0)
		if inc.N != scratch.N {
			t.Fatalf("step %d: N %d vs %d", step, inc.N, scratch.N)
		}
		// Criterion values must be within a few percent of each other.
		wi, ws := inc.WSS(), scratch.WSS()
		if wi > ws*1.10+1e-9 && wi-ws > 1 {
			t.Fatalf("step %d: incremental WSS %v much worse than scratch %v", step, wi, ws)
		}
	}
	if plus.NumPoints() != len(all) {
		t.Fatalf("NumPoints = %d, want %d", plus.NumPoints(), len(all))
	}
	if plus.NumSubClusters() == 0 {
		t.Fatal("no sub-clusters resident")
	}
}

func TestPhase2FewerSubsThanK(t *testing.T) {
	subs := []cf.CF{cf.NewCF(cf.Point{0, 0}), cf.NewCF(cf.Point{9, 9})}
	m, err := Phase2(subs, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Clusters) != 2 {
		t.Fatalf("clusters = %d, want 2", len(m.Clusters))
	}
}

func TestPhase2Empty(t *testing.T) {
	m, err := Phase2(nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Clusters) != 0 || m.N != 0 {
		t.Fatalf("empty Phase2 = %+v", m)
	}
}

func TestPhase2RejectsBadK(t *testing.T) {
	if _, err := Phase2(nil, 0); err == nil {
		t.Fatal("Phase2 accepted k = 0")
	}
	if _, err := NewPlus(DefaultConfig(0)); err == nil {
		t.Fatal("NewPlus accepted k = 0")
	}
}

func TestModelAssign(t *testing.T) {
	m := &Model{Clusters: []Cluster{
		{CF: cf.NewCF(cf.Point{0, 0})},
		{CF: cf.NewCF(cf.Point{10, 10})},
	}}
	if got := Nearest(m.Centroids(), cf.Point{1, 1}); got != 0 {
		t.Fatalf("Assign near origin = %d", got)
	}
	if got := Nearest(m.Centroids(), cf.Point{9, 9}); got != 1 {
		t.Fatalf("Assign near (10,10) = %d", got)
	}
	empty := &Model{}
	if got := Nearest(empty.Centroids(), cf.Point{0, 0}); got != -1 {
		t.Fatalf("Assign on empty model = %d, want -1", got)
	}
}

func TestWSS(t *testing.T) {
	// Two points at distance 2 around centroid: WSS = 1² + 1² = 2.
	c := cf.NewCF(cf.Point{0}).AddPoint(cf.Point{2})
	m := &Model{Clusters: []Cluster{{CF: c}}, N: 2}
	if got := m.WSS(); math.Abs(got-2) > 1e-9 {
		t.Fatalf("WSS = %v, want 2", got)
	}
	// Splitting the points into singleton clusters zeroes the criterion.
	m2 := &Model{Clusters: []Cluster{
		{CF: cf.NewCF(cf.Point{0})},
		{CF: cf.NewCF(cf.Point{2})},
	}, N: 2}
	if got := m2.WSS(); got != 0 {
		t.Fatalf("singleton WSS = %v, want 0", got)
	}
}

func TestPointBlockRoundTrip(t *testing.T) {
	b := &PointBlock{ID: 7, Points: []cf.Point{{1, 2}, {3.5, -4.25}}}
	data, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodePointBlock(data)
	if err != nil {
		t.Fatal(err)
	}
	if dec.ID != 7 || len(dec.Points) != 2 || dec.Points[1][1] != -4.25 {
		t.Fatalf("decoded %+v", dec)
	}
	// Mixed dimensions must be rejected.
	bad := &PointBlock{ID: 1, Points: []cf.Point{{1}, {1, 2}}}
	if _, err := bad.Encode(); err == nil {
		t.Fatal("Encode accepted mixed dimensions")
	}
	if _, err := DecodePointBlock(data[:3]); err == nil {
		t.Fatal("DecodePointBlock accepted truncated data")
	}
}

func TestPointStore(t *testing.T) {
	s := NewPointStore(diskio.NewMemStore())
	b := &PointBlock{ID: 2, Points: []cf.Point{{1, 1}}}
	if err := s.Put(b); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(2)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 2 || len(got.Points) != 1 {
		t.Fatalf("Get = %+v", got)
	}
	if _, err := s.Get(9); err == nil {
		t.Fatal("Get missing block succeeded")
	}
}

func TestPhase2Deterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	centers := []cf.Point{{0, 0}, {30, 30}}
	pts := gaussianBlobs(rng, centers, 500, 1.0)
	m1, err := Run(DefaultConfig(2), pts)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Run(DefaultConfig(2), pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(m1.Clusters) != len(m2.Clusters) {
		t.Fatal("nondeterministic cluster count")
	}
	for i := range m1.Clusters {
		a, b := m1.Clusters[i].Centroid(), m2.Clusters[i].Centroid()
		for d := range a {
			if a[d] != b[d] {
				t.Fatalf("nondeterministic centroid %d: %v vs %v", i, a, b)
			}
		}
	}
}

func TestPhase2KMeansRecoversCenters(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	centers := []cf.Point{{0, 0}, {60, 0}, {0, 60}}
	pts := gaussianBlobs(rng, centers, 1500, 1.0)
	tree, err := cf.NewTree(cf.DefaultTreeConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if err := tree.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	m, err := Phase2KMeans(tree.SubClusters(), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	matchCenters(t, m, centers, 1.0)
	if m.N != 1500 {
		t.Fatalf("N = %d", m.N)
	}
	// Comparable quality to the agglomerative phase 2.
	agg, err := Phase2(tree.SubClusters(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.WSS() > agg.WSS()*1.2+1e-9 {
		t.Fatalf("k-means WSS %v much worse than agglomerative %v", m.WSS(), agg.WSS())
	}
}

func TestPhase2KMeansDeterministicInSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	pts := gaussianBlobs(rng, []cf.Point{{0, 0}, {30, 30}}, 400, 1.0)
	tree, err := cf.NewTree(cf.DefaultTreeConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if err := tree.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	subs := tree.SubClusters()
	m1, err := Phase2KMeans(subs, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Phase2KMeans(subs, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(m1.Clusters) != len(m2.Clusters) {
		t.Fatal("nondeterministic cluster count")
	}
	for i := range m1.Clusters {
		a, b := m1.Clusters[i].Centroid(), m2.Clusters[i].Centroid()
		for d := range a {
			if a[d] != b[d] {
				t.Fatal("nondeterministic centroids for equal seeds")
			}
		}
	}
}

func TestPhase2KMeansEdgeCases(t *testing.T) {
	if _, err := Phase2KMeans(nil, 0, 1); err == nil {
		t.Error("accepted k = 0")
	}
	m, err := Phase2KMeans(nil, 3, 1)
	if err != nil || len(m.Clusters) != 0 {
		t.Errorf("empty input: %v, %v", m, err)
	}
	// More clusters requested than sub-clusters available.
	subs := []cf.CF{cf.NewCF(cf.Point{0}), cf.NewCF(cf.Point{9})}
	m, err = Phase2KMeans(subs, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Clusters) != 2 {
		t.Fatalf("clusters = %d, want 2", len(m.Clusters))
	}
	// Identical sub-clusters: seeding stops early, one cluster results.
	same := []cf.CF{cf.NewCF(cf.Point{5}), cf.NewCF(cf.Point{5}), cf.NewCF(cf.Point{5})}
	m, err = Phase2KMeans(same, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.N != 3 {
		t.Fatalf("N = %d", m.N)
	}
}

func TestPlusEncodeRestoreState(t *testing.T) {
	cfg := Config{Tree: cf.TreeConfig{Branching: 3, LeafEntries: 4, MaxLeafEntriesTotal: 16}, K: 3}
	p, err := NewPlus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	block := func() []cf.Point {
		pts := make([]cf.Point, 40)
		for i := range pts {
			c := float64(i % 3 * 10)
			pts[i] = cf.Point{c + rng.NormFloat64(), c + rng.NormFloat64()}
		}
		return pts
	}
	if err := p.AddBlock(block()); err != nil {
		t.Fatal(err)
	}

	r, err := RestorePlus(cfg, p.EncodeState())
	if err != nil {
		t.Fatal(err)
	}
	if r.NumPoints() != p.NumPoints() || r.NumSubClusters() != p.NumSubClusters() {
		t.Fatalf("restored state: %d points %d subclusters, want %d/%d",
			r.NumPoints(), r.NumSubClusters(), p.NumPoints(), p.NumSubClusters())
	}
	// Both absorb the next block identically.
	b := block()
	if err := p.AddBlock(b); err != nil {
		t.Fatal(err)
	}
	if err := r.AddBlock(b); err != nil {
		t.Fatal(err)
	}
	mp, err := p.Clusters()
	if err != nil {
		t.Fatal(err)
	}
	mr, err := r.Clusters()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mp, mr) {
		t.Fatal("restored BIRCH+ diverges from original")
	}

	if _, err := RestorePlus(cfg, []byte{0xFF}); err == nil {
		t.Fatal("restored from garbage state")
	}
	if _, err := RestorePlus(Config{Tree: cfg.Tree}, p.EncodeState()); err == nil {
		t.Fatal("restored with k = 0")
	}
}

// phase2Reference is phase 2 as it was before the nearest-neighbour cache: a
// full scan of all pairs for every merge, allocating CF arithmetic, and a
// refinement that recomputes every centroid per iteration. Phase2 must return
// the same model bit for bit; the benchmark's own oracle (birch.Run) runs
// Phase2 on both sides and cannot see a change of merge order.
func phase2Reference(subs []cf.CF, k int) *Model {
	var work []cf.CF
	n := 0
	for _, s := range subs {
		if s.N > 0 {
			work = append(work, s.Clone())
			n += s.N
		}
	}
	if len(work) == 0 {
		return &Model{}
	}
	if k > len(work) {
		k = len(work)
	}
	cents := make([]cf.Point, len(work))
	for i := range work {
		cents[i] = work[i].Centroid()
	}
	for len(work) > k {
		bi, bj, bd := 0, 1, math.Inf(1)
		for i := range cents {
			for j := i + 1; j < len(cents); j++ {
				if d := cf.Distance(cents[i], cents[j]); d < bd {
					bi, bj, bd = i, j, d
				}
			}
		}
		work[bi] = work[bi].Add(work[bj])
		cents[bi] = work[bi].Centroid()
		last := len(work) - 1
		work[bj], cents[bj] = work[last], cents[last]
		work, cents = work[:last], cents[:last]
	}

	seeds := cents
	assign := make([]int, len(subs))
	sum := func() []cf.CF {
		sums := make([]cf.CF, len(seeds))
		for i, s := range subs {
			if assign[i] >= 0 {
				sums[assign[i]] = sums[assign[i]].Add(s)
			}
		}
		return sums
	}
	for iter := 0; iter < 10; iter++ {
		changed := false
		for i, s := range subs {
			if s.N == 0 {
				assign[i] = -1
				continue
			}
			c := s.Centroid()
			best, bestD := 0, math.Inf(1)
			for j, seed := range seeds {
				if d := cf.Distance(c, seed); d < bestD {
					best, bestD = j, d
				}
			}
			if assign[i] != best {
				assign[i], changed = best, true
			}
		}
		if iter > 0 && !changed {
			break
		}
		for j, s := range sum() {
			if s.N > 0 {
				seeds[j] = s.Centroid()
			}
		}
	}
	m := &Model{N: n}
	for _, s := range sum() {
		if s.N > 0 {
			m.Clusters = append(m.Clusters, Cluster{CF: s})
		}
	}
	sortClusters(m.Clusters)
	return m
}

// Phase2Reference hands the oracle to the external test package, which can
// import pointgen (pointgen imports birch) for the benchmark's pinned stream.
var Phase2Reference = phase2Reference

// RequireSameModel fails unless the two models agree in every bit: cluster
// count, N, every LS float and SS.
func RequireSameModel(t testing.TB, what string, got, want *Model) {
	t.Helper()
	if got.N != want.N || len(got.Clusters) != len(want.Clusters) {
		t.Fatalf("%s: N=%d with %d clusters, reference N=%d with %d", what, got.N, len(got.Clusters), want.N, len(want.Clusters))
	}
	for i := range want.Clusters {
		g, w := got.Clusters[i].CF, want.Clusters[i].CF
		same := g.N == w.N && len(g.LS) == len(w.LS) && math.Float64bits(g.SS) == math.Float64bits(w.SS)
		for d := 0; same && d < len(w.LS); d++ {
			same = math.Float64bits(g.LS[d]) == math.Float64bits(w.LS[d])
		}
		if !same {
			t.Fatalf("%s: cluster %d is %+v, reference %+v", what, i, g, w)
		}
	}
}

func requirePhase2MatchesReference(t testing.TB, what string, subs []cf.CF, k int) {
	t.Helper()
	got, err := Phase2(subs, k)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	RequireSameModel(t, what, got, phase2Reference(subs, k))
}

// subCluster builds the CF of n points that all sit at cent.
func subCluster(n int, cent ...float64) cf.CF {
	c := cf.CF{N: n, LS: make([]float64, len(cent))}
	for d, x := range cent {
		c.LS[d] = float64(n) * x
		c.SS += float64(n) * x * x
	}
	return c
}

func TestPhase2MatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 300; trial++ {
		dim, k := 1+trial%4, 1+trial/4%5
		subs := make([]cf.CF, rng.Intn(70))
		if trial%50 == 49 {
			subs = make([]cf.CF, 200+rng.Intn(200))
		}
		for i := range subs {
			n := rng.Intn(40) // 0 is an empty sub-cluster, skipped by phase 2
			subs[i] = cf.CF{N: n, LS: make([]float64, dim), SS: rng.Float64() * 1e4}
			for d := range subs[i].LS {
				subs[i].LS[d] = float64(n) * (rng.NormFloat64()*20 + float64(rng.Intn(3))*50)
			}
		}
		requirePhase2MatchesReference(t, fmt.Sprintf("trial %d (n=%d dim=%d k=%d)", trial, len(subs), dim, k), subs, k)
	}
}

// TestPhase2MatchesReferenceTies holds the cached search to the tie-break of
// the pair scan — the lexicographically first pair at the minimum — on inputs
// where most distances tie.
func TestPhase2MatchesReferenceTies(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	inputs := map[string][]cf.CF{}
	var grid, shuffled, weighted []cf.CF
	for x := 0; x < 7; x++ {
		for y := 0; y < 7; y++ {
			grid = append(grid, subCluster(1, float64(x), float64(y)))
			weighted = append(weighted, subCluster(1+(x*7+y)%3, float64(x%3), float64(y%2)))
		}
	}
	shuffled = append(shuffled, grid...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	inputs["grid"], inputs["grid shuffled"], inputs["coincident centroids"] = grid, shuffled, weighted
	inputs["duplicated"] = append(append([]cf.CF{}, shuffled[:20]...), shuffled[:20]...)
	inputs["line"] = nil
	for x := 0; x < 40; x++ {
		inputs["line"] = append(inputs["line"], subCluster(1+x%2, float64(x%20)))
		inputs["all identical"] = append(inputs["all identical"], subCluster(1+x%4, 3, 3, 3))
	}
	inputs["with empties"] = append([]cf.CF{{}, cf.Zero(2)}, append(grid[:9:9], cf.CF{}, grid[9])...)
	// Every squared distance overflows: no pair is ever below +Inf.
	inputs["infinite distances"] = []cf.CF{subCluster(1, 1e200), subCluster(1, -1e200), subCluster(2, 3e200), subCluster(1, 0)}
	inputs["two"], inputs["one"] = grid[:2], grid[:1]
	for name, subs := range inputs {
		for k := 1; k <= 5; k++ { // covers n < k and n = k for the small inputs
			requirePhase2MatchesReference(t, fmt.Sprintf("%s, k=%d", name, k), subs, k)
		}
		requirePhase2MatchesReference(t, name+", k=n", subs, len(subs))
	}
}

func TestPhase2RejectsMixedDimensions(t *testing.T) {
	if _, err := Phase2([]cf.CF{subCluster(1, 0, 0), subCluster(1, 1)}, 1); err == nil {
		t.Fatal("Phase2 accepted sub-clusters of different dimensions")
	}
}

// FuzzPhase2MatchesReference draws small, tie-heavy inputs: each sub-cluster
// takes dim+1 bytes, a weight in 0..3 (0 is empty) and centroid coordinates
// on an 8-point grid.
func FuzzPhase2MatchesReference(f *testing.F) {
	f.Add([]byte{1, 0, 0, 1, 0, 1, 1, 1, 0, 2, 1, 1}, uint8(1), uint8(1))
	f.Add([]byte{1, 5, 1, 5, 1, 5, 0, 1, 3, 2}, uint8(0), uint8(2))
	f.Add([]byte("the cached row minimum must break ties like the pair scan"), uint8(2), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, dimByte, kByte uint8) {
		dim, k := 1+int(dimByte%4), 1+int(kByte%6)
		if len(data) > 120*(dim+1) {
			data = data[:120*(dim+1)] // the reference is cubic
		}
		var subs []cf.CF
		for ; len(data) > dim; data = data[dim+1:] {
			cent := make([]float64, dim)
			for d := range cent {
				cent[d] = float64(data[1+d] % 8)
			}
			subs = append(subs, subCluster(int(data[0]%4), cent...))
		}
		requirePhase2MatchesReference(t, fmt.Sprintf("k=%d dim=%d", k, dim), subs, k)
	})
}
