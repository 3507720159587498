package borders_test

// The kernel benchmark beside the counters it measures. Everything that
// is a paper figure or ablation runs from the lab's registry instead
// (BenchmarkLab in internal/bench); this package is external because the
// prepared counting environment lives there.

import (
	"testing"

	"github.com/demon-mining/demon/internal/bench"
)

const benchScale = 0.02

// BenchmarkCount measures update-phase counting of a candidate set of 30
// negative-border itemsets (the typical |S| the paper reports) with each
// strategy over one prepared 2M.20L.1I.4pats.4plen environment — Figure 2's
// inner loop, and the documented `make profile` target.
func BenchmarkCount(b *testing.B) {
	env, err := bench.NewCountEnv("2M.20L.1I.4pats.4plen", benchScale, 0.01, 1)
	if err != nil {
		b.Fatal(err)
	}
	sets := env.CandidateSet(30)
	for _, counter := range env.Counters() {
		b.Run(counter.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := counter.Count(sets, env.BlockIDs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
