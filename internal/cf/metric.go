package cf

import (
	"fmt"
	"math"
)

// Metric selects one of the five cluster distance definitions of ZRL96,
// all computable from cluster features alone. The CF-tree uses the
// configured metric to pick the closest entry while descending.
type Metric int

const (
	// D0 is the Euclidean distance between centroids.
	D0 Metric = iota
	// D1 is the Manhattan distance between centroids.
	D1
	// D2 is the average inter-cluster distance: the root mean squared
	// distance between points of the two clusters.
	D2
	// D3 is the average intra-cluster distance of the merged cluster (its
	// diameter).
	D3
	// D4 is the variance-increase distance: the growth in total squared
	// deviation caused by merging.
	D4
)

// String names the metric as ZRL96 does.
func (m Metric) String() string {
	switch m {
	case D0:
		return "D0"
	case D1:
		return "D1"
	case D2:
		return "D2"
	case D3:
		return "D3"
	case D4:
		return "D4"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

func (m Metric) valid() bool { return m >= D0 && m <= D4 }

// Between evaluates the metric between two non-empty cluster features.
func (m Metric) Between(a, b CF) float64 {
	switch m {
	case D0:
		return a.CentroidDistance(b)
	case D1:
		ca, cb := a.Centroid(), b.Centroid()
		var s float64
		for i := range ca {
			s += math.Abs(ca[i] - cb[i])
		}
		return s
	case D2:
		// D2² = SS1/N1 + SS2/N2 − 2·LS1·LS2/(N1·N2).
		if a.N == 0 || b.N == 0 {
			return 0
		}
		var dot float64
		for i := range a.LS {
			dot += a.LS[i] * b.LS[i]
		}
		d2 := a.SS/float64(a.N) + b.SS/float64(b.N) - 2*dot/(float64(a.N)*float64(b.N))
		if d2 < 0 {
			d2 = 0
		}
		return math.Sqrt(d2)
	case D3:
		return a.mergedDiameter(b)
	case D4:
		// Variance increase: v(C) = SS − ‖LS‖²/N; D4 = √(v(a∪b) − v(a) − v(b)).
		inc := variance(a.Add(b)) - variance(a) - variance(b)
		if inc < 0 {
			inc = 0
		}
		return math.Sqrt(inc)
	default:
		panic(fmt.Sprintf("cf: unknown metric %d", int(m)))
	}
}

// variance returns the total squared deviation from the centroid,
// SS − ‖LS‖²/N.
func variance(c CF) float64 {
	if c.N == 0 {
		return 0
	}
	var ls2 float64
	for _, x := range c.LS {
		ls2 += x * x
	}
	v := c.SS - ls2/float64(c.N)
	if v < 0 {
		v = 0
	}
	return v
}
