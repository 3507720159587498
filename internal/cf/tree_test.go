package cf

import (
	"math"
	"math/rand"
	"testing"
)

func newTestTree(t *testing.T, cfg TreeConfig) *Tree {
	t.Helper()
	tree, err := NewTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestNewTreeValidatesConfig(t *testing.T) {
	bad := []TreeConfig{
		{Branching: 1, LeafEntries: 4, MaxLeafEntriesTotal: 10},
		{Branching: 4, LeafEntries: 1, MaxLeafEntriesTotal: 10},
		{Branching: 4, LeafEntries: 4, MaxLeafEntriesTotal: 1},
		{Branching: 4, LeafEntries: 4, MaxLeafEntriesTotal: 10, Threshold: -1},
	}
	for i, cfg := range bad {
		if _, err := NewTree(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestTreeInsertPreservesMass(t *testing.T) {
	tree := newTestTree(t, DefaultTreeConfig())
	rng := rand.New(rand.NewSource(3))
	var wantLS0, wantSS float64
	n := 2000
	for i := 0; i < n; i++ {
		p := Point{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		wantLS0 += p[0]
		wantSS += p[0]*p[0] + p[1]*p[1] + p[2]*p[2]
		if err := tree.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	if tree.NumPoints() != n {
		t.Fatalf("NumPoints = %d, want %d", tree.NumPoints(), n)
	}
	total := Zero(3)
	for _, c := range tree.SubClusters() {
		total = total.Add(c)
	}
	if total.N != n {
		t.Fatalf("sub-clusters summarize %d points, want %d", total.N, n)
	}
	if math.Abs(total.LS[0]-wantLS0) > 1e-6*(1+math.Abs(wantLS0)) {
		t.Fatalf("LS[0] = %v, want %v", total.LS[0], wantLS0)
	}
	if math.Abs(total.SS-wantSS) > 1e-6*(1+wantSS) {
		t.Fatalf("SS = %v, want %v", total.SS, wantSS)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTreeRespectsLeafBudget(t *testing.T) {
	cfg := TreeConfig{Branching: 4, LeafEntries: 4, MaxLeafEntriesTotal: 32}
	tree := newTestTree(t, cfg)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 5000; i++ {
		if err := tree.Insert(Point{rng.Float64() * 100, rng.Float64() * 100}); err != nil {
			t.Fatal(err)
		}
	}
	if got := tree.NumSubClusters(); got > cfg.MaxLeafEntriesTotal {
		t.Fatalf("NumSubClusters = %d > budget %d", got, cfg.MaxLeafEntriesTotal)
	}
	if tree.Rebuilds() == 0 {
		t.Fatal("expected at least one rebuild on uniform data")
	}
	if tree.Threshold() <= 0 {
		t.Fatal("threshold did not grow")
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTreeSeparatesWellSeparatedClusters(t *testing.T) {
	tree := newTestTree(t, DefaultTreeConfig())
	rng := rand.New(rand.NewSource(5))
	centers := []Point{{0, 0}, {100, 0}, {0, 100}}
	for i := 0; i < 1500; i++ {
		c := centers[i%3]
		p := Point{c[0] + rng.NormFloat64(), c[1] + rng.NormFloat64()}
		if err := tree.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	// Every sub-cluster centroid must sit near exactly one true center.
	for _, sc := range tree.SubClusters() {
		cent := sc.Centroid()
		best := math.Inf(1)
		for _, c := range centers {
			if d := Distance(cent, c); d < best {
				best = d
			}
		}
		if best > 10 {
			t.Fatalf("sub-cluster centroid %v is %v away from all true centers", cent, best)
		}
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTreeRejectsDimensionChange(t *testing.T) {
	tree := newTestTree(t, DefaultTreeConfig())
	if err := tree.Insert(Point{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := tree.Insert(Point{1, 2, 3}); err == nil {
		t.Fatal("Insert accepted dimension change")
	}
}

func TestTreeIdenticalPointsAbsorb(t *testing.T) {
	tree := newTestTree(t, TreeConfig{Branching: 4, LeafEntries: 4, MaxLeafEntriesTotal: 8})
	for i := 0; i < 100; i++ {
		if err := tree.Insert(Point{1, 1}); err != nil {
			t.Fatal(err)
		}
	}
	// Identical points have zero diameter and must absorb into one entry
	// even at threshold zero.
	if got := tree.NumSubClusters(); got != 1 {
		t.Fatalf("NumSubClusters = %d, want 1", got)
	}
	sc := tree.SubClusters()
	if sc[0].N != 100 {
		t.Fatalf("sub-cluster N = %d, want 100", sc[0].N)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTreeOrderInsensitivity(t *testing.T) {
	// BIRCH is robust (not exactly invariant) to input order; on well
	// separated data the per-center point mass must match regardless of
	// order.
	centers := []Point{{0, 0}, {1000, 1000}}
	rng := rand.New(rand.NewSource(6))
	pts := make([]Point, 600)
	for i := range pts {
		c := centers[i%2]
		pts[i] = Point{c[0] + rng.NormFloat64(), c[1] + rng.NormFloat64()}
	}
	massPerCenter := func(order []Point) [2]int {
		tree := newTestTree(t, DefaultTreeConfig())
		for _, p := range order {
			if err := tree.Insert(p); err != nil {
				t.Fatal(err)
			}
		}
		var mass [2]int
		for _, sc := range tree.SubClusters() {
			cent := sc.Centroid()
			if Distance(cent, centers[0]) < Distance(cent, centers[1]) {
				mass[0] += sc.N
			} else {
				mass[1] += sc.N
			}
		}
		return mass
	}
	m1 := massPerCenter(pts)
	shuffled := make([]Point, len(pts))
	copy(shuffled, pts)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	m2 := massPerCenter(shuffled)
	if m1 != m2 {
		t.Fatalf("order changed the per-center mass: %v vs %v", m1, m2)
	}
	if m1[0] != 300 || m1[1] != 300 {
		t.Fatalf("mass = %v, want [300 300]", m1)
	}
}
