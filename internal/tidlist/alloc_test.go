//go:build !race

// The race detector's sync.Pool drops entries at random, so a counting pass
// cannot be counted on to find its scratch warm under it.

package tidlist

import "testing"

// TestCountECUTAllocations: once its scratch is warm, a counting pass
// allocates per block it fetches one segment (the copy the store's Get hands
// back) and its key, and a constant beyond that, the same at 50 candidates
// as at 200.
func TestCountECUTAllocations(t *testing.T) {
	const ceiling = 16
	blocks := questBlocks(t, 8, 2000)
	s, mem, ids := countEnv(t, blocks)
	for _, n := range []int{50, 200} {
		sets := updateCandidates(blocks, n)
		before := mem.Stats().Reads
		if _, err := s.CountECUT(sets, ids); err != nil {
			t.Fatal(err)
		}
		fetched := mem.Stats().Reads - before
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := s.CountECUT(sets, ids); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d candidates: %.0f allocations, %d segments fetched", n, allocs, fetched)
		if allocs > float64(fetched+ceiling) {
			t.Errorf("%d candidates: %.0f allocations for %d segments fetched, ceiling fetched + %d",
				n, allocs, fetched, ceiling)
		}
	}
}
