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

// closestReference is the descent's pick over the roots themselves: a
// strict-< scan of the centroid distances, the first entry at the minimum.
func closestReference(entries []entry, c CF) int {
	best, bestD := 0, math.Inf(1)
	for i := range entries {
		if d := Distance(entries[i].cf.Centroid(), c.Centroid()); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// FuzzClosestMatchesReference holds the descent's squared-distance scan to
// closestReference. Each CF takes dim+1 bytes: a weight in 0..3 (0 is empty)
// and linear sums on an 8-point grid, so centroids such as 7/3 tie or nearly
// tie. A byte from 0xF0 up picks a grid point plus one ulp: from the origin,
// (1, 1) and (1, 1+2⁻⁵²) have squares 2 and 2+2⁻⁵¹ but one root, a tie that
// only the roots see. A byte from 0xF8 up picks a coordinate whose square
// overflows, or whose sum is infinite. Each CF in turn is the incoming one,
// its successors the entries.
func FuzzClosestMatchesReference(f *testing.F) {
	f.Add([]byte{1, 0, 0, 1, 0, 1, 1, 1, 0, 2, 1, 1}, uint8(1))
	f.Add([]byte{3, 7, 1, 2, 7, 1, 1, 2, 0, 0, 0, 3, 5, 2}, uint8(0))
	f.Add([]byte{1, 0, 0, 1, 1, 0xF1, 1, 1, 1}, uint8(1)) // the root tie above, larger square first
	f.Add([]byte{1, 0xF8, 0, 1, 0xF9, 0, 2, 0xFE, 1, 1, 0xFF, 0xFF, 3, 0xFC, 0xFD}, uint8(1))
	f.Add([]byte("every pick of the squared scan must be the first at the least root"), uint8(7))
	huge := [8]float64{1e154, -1e154, 1e200, -1e200, 1e308, -1e308, math.MaxFloat64, -math.MaxFloat64}
	f.Fuzz(func(t *testing.T, data []byte, dimByte uint8) {
		dim := 1 + int(dimByte%8)
		if len(data) > 64*(dim+1) {
			data = data[:64*(dim+1)]
		}
		var entries []entry
		for ; len(data) > dim; data = data[dim+1:] {
			c := CF{N: int(data[0] % 4), LS: make([]float64, dim)}
			for d, b := range data[1 : dim+1] {
				switch x := float64(b % 8); {
				case b >= 0xF8:
					c.LS[d] = huge[b-0xF8]
				case b >= 0xF0:
					c.LS[d] = math.Nextafter(x, math.Inf(1))
				default:
					c.LS[d] = x
				}
			}
			entries = append(entries, entry{cf: c})
		}
		var tree Tree
		for k := range entries {
			in, cands := entries[k].cf, entries[k+1:]
			if got, want := tree.closest(cands, in), closestReference(cands, in); got != want {
				t.Fatalf("closest to %+v is entry %d (%+v), reference %d (%+v)", in, got, cands[got].cf, want, cands[want].cf)
			}
		}
	})
}
