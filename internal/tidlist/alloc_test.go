//go:build !race

// The race detector's sync.Pool drops entries at random, so neither a
// counting pass nor Materialize can be counted on to find its scratch warm
// under it.

package tidlist

import (
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/demon-mining/demon/internal/diskio"
)

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

// TestMaterializeAllocations: once its sort's scratch is warm, materializing
// a 2,000-transaction block allocates the segment, the copy the store keeps
// and its key, whatever its number of items, and no more than 2.5 times the
// segment's bytes: the segment's capacity is an estimate, the store's copy
// exact (measured: 60,048 bytes for a segment of 26,706).
func TestMaterializeAllocations(t *testing.T) {
	const ceiling = 4
	blk := questBlocks(t, 1, 2000)[0]
	mem := diskio.NewMemStore()
	s := NewStore(mem)
	materialize := func() {
		if err := s.Materialize(blk); err != nil {
			t.Fatal(err)
		}
	}
	materialize()
	seg, err := mem.Get(itemKey(blk.ID))
	if err != nil {
		t.Fatal(err)
	}
	const runs = 20
	allocs := testing.AllocsPerRun(runs, materialize)
	// Setting GOMAXPROCS, as AllocsPerRun does, empties a sync.Pool, and so
	// does a collection: warm it again and count the bytes between
	// collections.
	materialize()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		materialize()
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%.0f allocations, %d bytes for a segment of %d", allocs, perCall, len(seg))
	if allocs > ceiling {
		t.Errorf("%.0f allocations, ceiling %d", allocs, ceiling)
	}
	if 2*perCall > 5*uint64(len(seg)) {
		t.Errorf("%d bytes allocated for a segment of %d, ceiling 2.5× its bytes", perCall, len(seg))
	}
}
