package birch_test

import (
	"fmt"
	"testing"

	"github.com/demon-mining/demon/internal/birch"
	"github.com/demon-mining/demon/internal/cf"
	"github.com/demon-mining/demon/internal/obs"
	"github.com/demon-mining/demon/internal/pointgen"
)

// pinnedBlocks returns the first blocks of the benchmark's point stream
// (benchmark/inputs.go: spec 1M.3c.4d, generator seed 1, noise 0.02, extent
// 100), 5,000 points each.
func pinnedBlocks(t testing.TB, blocks int) [][]cf.Point {
	t.Helper()
	cfg, err := pointgen.ParseSpec("1M.3c.4d")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed, cfg.Noise, cfg.Extent = 1, 0.02, 100
	gen, err := pointgen.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]cf.Point, blocks)
	for b := range out {
		out[b] = gen.Block(1, 5000).Points
	}
	return out
}

// pinnedSubClusters returns the leaf sub-clusters of the default CF-tree over
// that stream after each of the given block counts (ascending).
func pinnedSubClusters(t testing.TB, after ...int) [][]cf.CF {
	t.Helper()
	tree, err := cf.NewTree(cf.DefaultTreeConfig())
	if err != nil {
		t.Fatal(err)
	}
	var out [][]cf.CF
	for b, pts := range pinnedBlocks(t, after[len(after)-1]) {
		for _, p := range pts {
			if err := tree.Insert(p); err != nil {
				t.Fatal(err)
			}
		}
		if b+1 == after[len(out)] {
			out = append(out, tree.SubClusters())
		}
	}
	return out
}

// TestPhase2MatchesReferencePinnedStream is the differential oracle on the
// input the cluster-mem workload measures.
func TestPhase2MatchesReferencePinnedStream(t *testing.T) {
	after := []int{5, 25, 45}
	for i, subs := range pinnedSubClusters(t, after...) {
		for _, k := range []int{1, 3} { // every merge there is, and the workload's K
			got, err := birch.Phase2(subs, k)
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("%d blocks (%d sub-clusters), k=%d", after[i], len(subs), k)
			birch.RequireSameModel(t, what, got, birch.Phase2Reference(subs, k))
		}
	}
}

// TestPhase2Allocations keeps phase 2 off the allocator: a handful of flat
// arrays per call, not one CF per merge or per sub-cluster per iteration
// (4,183 allocations per Clusters() before the in-place kernels).
func TestPhase2Allocations(t *testing.T) {
	subs := pinnedSubClusters(t, 45)[0]
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := birch.Phase2(subs, 3); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 70 // 58 measured: slice growth while flattening, ≤ 10·K refined seeds, the model
	if allocs > ceiling {
		t.Fatalf("Phase2 on %d sub-clusters: %v allocations per run, ceiling %d", len(subs), allocs, ceiling)
	}
}

func BenchmarkPhase2PinnedStream(b *testing.B) {
	subs := pinnedSubClusters(b, 45)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := birch.Phase2(subs, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPhase2CountsItsWork reads the two work counters next to birch.phase2.ns:
// they repeat exactly per input, and stay within n distances per row scanned —
// the all-pairs scan computed ~n³/6.
func TestPhase2CountsItsWork(t *testing.T) {
	prev := obs.SetDefault(obs.NewRegistry())
	defer obs.SetDefault(prev)
	plus, err := birch.NewPlus(birch.DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, pts := range pinnedBlocks(t, 45) {
		if err := plus.AddBlock(pts); err != nil {
			t.Fatal(err)
		}
	}
	var distances, rescans [2]int64
	for i := range distances {
		if _, err := plus.Clusters(); err != nil {
			t.Fatal(err)
		}
		distances[i] = obs.Default().Counter("birch.phase2.distances").Value()
		rescans[i] = obs.Default().Counter("birch.phase2.rescans").Value()
	}
	n := int64(plus.NumSubClusters())
	t.Logf("%d sub-clusters: %d distances, %d rescans per query (all-pairs scan: %d)", n, distances[0], rescans[0], (n+1)*n*(n-1)/6-4)
	if distances[0] == 0 || rescans[0] == 0 || distances[1] != 2*distances[0] || rescans[1] != 2*rescans[0] {
		t.Fatalf("counters after one and two queries: distances %v, rescans %v", distances, rescans)
	}
	if limit := (n + rescans[0] + 2*n) * n; distances[0] > limit {
		t.Fatalf("%d distances for %d sub-clusters and %d rescans, limit %d", distances[0], n, rescans[0], limit)
	}
}
