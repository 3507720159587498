// Package cf implements cluster features and the CF-tree of BIRCH (Zhang,
// Ramakrishnan, Livny, SIGMOD 1996), the pre-clustering phase the DEMON
// paper's BIRCH+ algorithm keeps resident across block arrivals. A cluster
// feature CF = (N, LS, SS) summarizes a set of points by its cardinality,
// linear sum and squared sum; CFs are additive, which is what makes the set
// of sub-clusters incrementally maintainable under insertions (and not under
// deletions — the motivation for GEMM).
package cf

import (
	"fmt"
	"math"
)

// Point is an n-dimensional point.
type Point []float64

// CF is a cluster feature: the number of points N, their linear sum LS and
// the sum of their squared norms SS.
type CF struct {
	N  int
	LS []float64
	SS float64
}

// NewCF returns the cluster feature of a single point.
func NewCF(p Point) CF {
	ls := make([]float64, len(p))
	copy(ls, p)
	ss := 0.0
	for _, x := range p {
		ss += x * x
	}
	return CF{N: 1, LS: ls, SS: ss}
}

// Zero returns an empty CF of the given dimensionality.
func Zero(dim int) CF {
	return CF{LS: make([]float64, dim)}
}

// Dim returns the dimensionality.
func (c CF) Dim() int { return len(c.LS) }

// Add returns the CF of the union of the two point sets (CF additivity).
func (c CF) Add(o CF) CF {
	sum := c.Clone()
	sum.Merge(o)
	return sum
}

// Merge is Add in place: c becomes the CF of the union, reusing c's own LS
// slice, which must not be shared. An empty c takes a copy of o.
func (c *CF) Merge(o CF) {
	if c.N == 0 {
		c.N, c.LS, c.SS = o.N, append(c.LS[:0], o.LS...), o.SS
		return
	}
	if o.N == 0 {
		return
	}
	if len(c.LS) != len(o.LS) {
		panic(fmt.Sprintf("cf: dimension mismatch %d vs %d", len(c.LS), len(o.LS)))
	}
	for i := range c.LS {
		c.LS[i] += o.LS[i]
	}
	c.N += o.N
	c.SS += o.SS
}

// AddPoint returns the CF with one more point absorbed.
func (c CF) AddPoint(p Point) CF { return c.Add(NewCF(p)) }

// Clone returns an independent copy.
func (c CF) Clone() CF {
	ls := make([]float64, len(c.LS))
	copy(ls, c.LS)
	return CF{N: c.N, LS: ls, SS: c.SS}
}

// Centroid returns the mean of the summarized points. The centroid of an
// empty CF is the zero vector.
func (c CF) Centroid() Point {
	out := make(Point, len(c.LS))
	if c.N == 0 {
		return out
	}
	for i, x := range c.LS {
		out[i] = x / float64(c.N)
	}
	return out
}

// Radius returns the BIRCH radius: the root mean squared distance of the
// points to the centroid, computable from the CF alone as
// sqrt(SS/N - ||LS/N||²).
func (c CF) Radius() float64 {
	if c.N == 0 {
		return 0
	}
	n := float64(c.N)
	var norm2 float64
	for _, x := range c.LS {
		m := x / n
		norm2 += m * m
	}
	r2 := c.SS/n - norm2
	if r2 < 0 {
		r2 = 0 // numerical noise on single points / collinear data
	}
	return math.Sqrt(r2)
}

// Diameter returns the BIRCH diameter: the root average pairwise distance of
// the summarized points, sqrt((2N·SS - 2||LS||²) / (N(N-1))).
func (c CF) Diameter() float64 {
	if c.N <= 1 {
		return 0
	}
	n := float64(c.N)
	var ls2 float64
	for _, x := range c.LS {
		ls2 += x * x
	}
	d2 := (2*n*c.SS - 2*ls2) / (n * (n - 1))
	if d2 < 0 {
		d2 = 0
	}
	return math.Sqrt(d2)
}

// mergedDiameter returns c.Add(o).Diameter() without materializing the sum,
// operation for operation — the absorb test of the CF-tree and the D3 metric.
func (c CF) mergedDiameter(o CF) float64 {
	if c.N == 0 || o.N == 0 || len(c.LS) != len(o.LS) {
		return c.Add(o).Diameter()
	}
	n := float64(c.N + o.N)
	var ls2 float64
	for i := range c.LS {
		x := c.LS[i] + o.LS[i]
		ls2 += x * x
	}
	d2 := (2*n*(c.SS+o.SS) - 2*ls2) / (n * (n - 1))
	if d2 < 0 {
		d2 = 0
	}
	return math.Sqrt(d2)
}

// CentroidDistance returns the Euclidean distance between the centroids of
// the two CFs (the D0 metric of BIRCH), dividing LS by N inline: the descent
// of every insert evaluates it once per entry visited.
func (c CF) CentroidDistance(o CF) float64 {
	if c.N == 0 || o.N == 0 || len(c.LS) != len(o.LS) {
		return Distance(c.Centroid(), o.Centroid())
	}
	cn, on := float64(c.N), float64(o.N)
	var s float64
	for i := range c.LS {
		d := c.LS[i]/cn - o.LS[i]/on
		s += d * d
	}
	return math.Sqrt(s)
}

// Distance returns the Euclidean distance between two points.
func Distance(a, b Point) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("cf: dimension mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
