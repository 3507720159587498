package dtree_test

import (
	"fmt"
	"log"
	"math/rand"

	"github.com/demon-mining/demon/internal/blockseq"
	"github.com/demon-mining/demon/internal/dtree"
	"github.com/demon-mining/demon/internal/pattern"
)

// Example_conceptDrift monitors a classification stream for concept drift.
// A credit-scoring model receives a daily block of labelled applications.
// The FOCUS deviation instantiated with decision-tree models (the third
// model class of the paper's Section 4) compares every new block's induced
// classifier against history; compact sequences group the days the concept
// was stable, and the day the acceptance policy changed starts a new one.
func Example_conceptDrift() {
	det, err := pattern.New[*dtree.LabeledBlock](dtree.Differ{}, 0.01, 0)
	if err != nil {
		log.Fatal(err)
	}

	rng := rand.New(rand.NewSource(1))
	// Days 1-4: the old policy (approve when income − debt > 0).
	// Days 5-7: the new, stricter policy (approve when income − 2·debt > 0).
	for day := blockseq.ID(1); day <= 7; day++ {
		blk := &dtree.LabeledBlock{ID: day, Records: applications(rng, day >= 5, 600), NumClasses: 2}
		st, err := det.AddBlock(day, blk)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("day %d: similar to %d earlier days\n", day, st.SimilarTo)
	}

	fmt.Println("\nstable concept periods:")
	for _, p := range det.Maximal() {
		fmt.Printf("  days %v\n", p)
	}
	// Output:
	// day 1: similar to 0 earlier days
	// day 2: similar to 1 earlier days
	// day 3: similar to 2 earlier days
	// day 4: similar to 3 earlier days
	// day 5: similar to 0 earlier days
	// day 6: similar to 1 earlier days
	// day 7: similar to 1 earlier days
	//
	// stable concept periods:
	//   days [1 2 3 4]
	//   days [5 6]
	//   days [6 7]
}

// applications draws labelled credit applications under one of the two
// policies.
func applications(rng *rand.Rand, strict bool, n int) []dtree.Record {
	recs := make([]dtree.Record, n)
	for i := range recs {
		income := rng.Float64() * 10
		debt := rng.Float64() * 6
		score := income - debt
		if strict {
			score = income - 2*debt
		}
		y := 0
		if score > 0 {
			y = 1
		}
		recs[i] = dtree.Record{X: []float64{income, debt}, Y: y}
	}
	return recs
}
