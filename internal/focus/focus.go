// Package focus implements the FOCUS deviation framework (Ganti, Gehrke,
// Ramakrishnan, Loh, PODS 1999) that Section 4 of the DEMON paper
// instantiates for pattern detection: a model has a structural component
// (its "interesting regions") and a measure component (a summary of the data
// mapped to each region); the deviation between two datasets is the
// aggregate of the measure differences over the greatest common refinement
// of their two models' structural components, and the statistical
// significance of the deviation is the probability that both datasets were
// drawn from the same underlying process.
//
// This package provides the instantiation the DEMON experiments use:
// frequent itemset models over transaction blocks. Two blocks are similar at
// significance level α (Definition 4.1) when the deviation's PValue is at
// least α; pattern.Detector makes that comparison.
package focus

// Deviation is the result of comparing two blocks through a model class.
type Deviation struct {
	// Score is the deviation value δ: the normalized aggregate of measure
	// differences over the common structural component. Zero means the
	// induced models agree exactly; larger is more different.
	Score float64
	// PValue is the probability of observing a deviation at least this
	// large if both blocks were drawn from the same process. Small values
	// mean the blocks differ significantly.
	PValue float64
	// Regions is the size of the greatest common refinement the measures
	// were compared over.
	Regions int
}

// Differ computes deviations between two blocks, each given as a B: the
// block itself, or its model mined once (ItemsetDiffer's *ItemsetModel).
// Implementations must be deterministic and symmetric up to numerical noise.
type Differ[B any] interface {
	Deviation(a, b B) (Deviation, error)
}
