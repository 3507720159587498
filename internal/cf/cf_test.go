package cf

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

func TestNewCF(t *testing.T) {
	c := NewCF(Point{3, 4})
	if c.N != 1 || c.LS[0] != 3 || c.LS[1] != 4 || !almostEqual(c.SS, 25) {
		t.Fatalf("NewCF = %+v", c)
	}
	// Independence from the input point.
	p := Point{1, 2}
	c = NewCF(p)
	p[0] = 99
	if c.LS[0] != 1 {
		t.Fatal("NewCF aliases input point")
	}
}

func TestCFAdd(t *testing.T) {
	a := NewCF(Point{1, 0})
	b := NewCF(Point{3, 4})
	s := a.Add(b)
	if s.N != 2 || s.LS[0] != 4 || s.LS[1] != 4 || !almostEqual(s.SS, 26) {
		t.Fatalf("Add = %+v", s)
	}
	// Adding a zero CF is identity.
	if got := a.Add(CF{}); got.N != 1 || got.LS[0] != 1 {
		t.Fatalf("Add zero = %+v", got)
	}
	if got := (CF{}).Add(b); got.N != 1 || got.LS[1] != 4 {
		t.Fatalf("zero Add = %+v", got)
	}
}

func TestCFAddDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add with mismatched dims did not panic")
		}
	}()
	NewCF(Point{1}).Add(NewCF(Point{1, 2}))
}

func TestCentroid(t *testing.T) {
	c := NewCF(Point{0, 0}).AddPoint(Point{2, 4})
	got := c.Centroid()
	if got[0] != 1 || got[1] != 2 {
		t.Fatalf("Centroid = %v", got)
	}
	if got := (CF{LS: make([]float64, 2)}).Centroid(); got[0] != 0 || got[1] != 0 {
		t.Fatalf("empty Centroid = %v", got)
	}
}

// TestRadiusMatchesDefinition verifies the CF-only radius formula against
// the direct definition on random point sets.
func TestRadiusMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(20)
		dim := 1 + rng.Intn(4)
		pts := make([]Point, n)
		c := Zero(dim)
		for i := range pts {
			pts[i] = make(Point, dim)
			for d := range pts[i] {
				pts[i][d] = rng.NormFloat64() * 10
			}
			c = c.AddPoint(pts[i])
		}
		cent := c.Centroid()
		var sum float64
		for _, p := range pts {
			d := Distance(p, cent)
			sum += d * d
		}
		want := math.Sqrt(sum / float64(n))
		if got := c.Radius(); math.Abs(got-want) > 1e-6*(1+want) {
			t.Fatalf("trial %d: Radius = %v, want %v", trial, got, want)
		}
	}
}

// TestDiameterMatchesDefinition verifies the CF-only diameter formula
// against the direct pairwise definition.
func TestDiameterMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(15)
		dim := 1 + rng.Intn(3)
		pts := make([]Point, n)
		c := Zero(dim)
		for i := range pts {
			pts[i] = make(Point, dim)
			for d := range pts[i] {
				pts[i][d] = rng.NormFloat64() * 5
			}
			c = c.AddPoint(pts[i])
		}
		var sum float64
		for i := range pts {
			for j := range pts {
				if i == j {
					continue
				}
				d := Distance(pts[i], pts[j])
				sum += d * d
			}
		}
		want := math.Sqrt(sum / float64(n*(n-1)))
		if got := c.Diameter(); math.Abs(got-want) > 1e-6*(1+want) {
			t.Fatalf("trial %d: Diameter = %v, want %v", trial, got, want)
		}
	}
}

func TestSinglePointRadiusDiameterZero(t *testing.T) {
	c := NewCF(Point{5, -3})
	if c.Radius() != 0 {
		t.Fatalf("single point radius = %v", c.Radius())
	}
	if c.Diameter() != 0 {
		t.Fatalf("single point diameter = %v", c.Diameter())
	}
}

// Property: CF addition is commutative and associative (up to float noise).
func TestCFAddProperties(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		if math.IsNaN(ax + ay + bx + by + cx + cy) {
			return true
		}
		clamp := func(v float64) float64 {
			if v > 1e6 {
				return 1e6
			}
			if v < -1e6 {
				return -1e6
			}
			return v
		}
		a := NewCF(Point{clamp(ax), clamp(ay)})
		b := NewCF(Point{clamp(bx), clamp(by)})
		c := NewCF(Point{clamp(cx), clamp(cy)})
		ab := a.Add(b)
		ba := b.Add(a)
		if ab.N != ba.N || !almostEqual(ab.SS, ba.SS) || !almostEqual(ab.LS[0], ba.LS[0]) {
			return false
		}
		l := a.Add(b).Add(c)
		r := a.Add(b.Add(c))
		return l.N == r.N && almostEqual(l.SS, r.SS) &&
			almostEqual(l.LS[0], r.LS[0]) && almostEqual(l.LS[1], r.LS[1])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistance(t *testing.T) {
	if got := Distance(Point{0, 0}, Point{3, 4}); !almostEqual(got, 5) {
		t.Fatalf("Distance = %v, want 5", got)
	}
}

func TestCentroidDistance(t *testing.T) {
	a := NewCF(Point{0, 0}).AddPoint(Point{2, 0}) // centroid (1, 0)
	b := NewCF(Point{4, 0})                       // centroid (4, 0)
	if got := a.CentroidDistance(b); !almostEqual(got, 3) {
		t.Fatalf("CentroidDistance = %v, want 3", got)
	}
}

// TestInPlaceKernels holds Merge (and Add, built on it) to CF additivity
// computed term by term, and mergedDiameter and the inline CentroidDistance
// to the allocating forms they replace — all bit for bit, empty operands
// included.
func TestInPlaceKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	random := func(dim int) CF {
		c := CF{N: rng.Intn(4), LS: make([]float64, dim), SS: rng.Float64() * 100}
		for d := range c.LS {
			c.LS[d] = rng.NormFloat64() * 50
		}
		return c
	}
	for trial := 0; trial < 500; trial++ {
		dim := 1 + trial%4
		a, b := random(dim), random(dim)
		want := CF{N: a.N + b.N, LS: make([]float64, dim), SS: a.SS + b.SS}
		for d := range want.LS {
			want.LS[d] = a.LS[d] + b.LS[d]
		}
		if a.N == 0 {
			want = b // an empty CF contributes nothing, not even its SS
		} else if b.N == 0 {
			want = a
		}
		got := a.Clone()
		got.Merge(b)
		for _, g := range []CF{got, a.Add(b)} {
			same := g.N == want.N && g.SS == want.SS && len(g.LS) == dim
			for d := 0; same && d < dim; d++ {
				same = math.Float64bits(g.LS[d]) == math.Float64bits(want.LS[d])
			}
			if !same {
				t.Fatalf("%+v merged with %+v = %+v, want %+v", a, b, g, want)
			}
		}
		if g, w := a.mergedDiameter(b), want.Diameter(); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("mergedDiameter(%+v, %+v) = %v, Diameter of the sum = %v", a, b, g, w)
		}
		if g, w := a.CentroidDistance(b), Distance(a.Centroid(), b.Centroid()); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("CentroidDistance(%+v, %+v) = %v, over centroids %v", a, b, g, w)
		}
	}
}
