package cf_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"github.com/demon-mining/demon/internal/cf"
	"github.com/demon-mining/demon/internal/pointgen"
)

// The CF-tree is a pure function of the configuration and the point order, and
// Encode stores every float as its IEEE-754 bits, so a digest of Encode pins
// the tree bit for bit. The goldens below were recorded before the CF kernels
// were taken off the allocator (in-place absorb, inline centroid distances):
// a kernel rewrite that changes one floating-point operation, or the order of
// two, moves an absorb decision somewhere in these streams and a digest with
// it.

// pinnedStream is the benchmark's point stream (benchmark/inputs.go: spec
// 1M.3c.4d, generator seed 1, noise 0.02, extent 100) in blocks of 5,000.
func pinnedStream(t testing.TB, blocks int) [][]cf.Point {
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

// digestAfter inserts the stream block by block, validating the tree after
// every block, and returns the Encode digest after each block count in at.
func digestAfter(t *testing.T, cfg cf.TreeConfig, stream [][]cf.Point, at ...int) []string {
	t.Helper()
	tree, err := cf.NewTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for b, pts := range stream {
		for _, p := range pts {
			if err := tree.Insert(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := tree.Validate(); err != nil {
			t.Fatalf("after block %d: %v", b+1, err)
		}
		for _, n := range at {
			if n == b+1 {
				sum := sha256.Sum256(tree.Encode())
				out = append(out, hex.EncodeToString(sum[:]))
			}
		}
	}
	return out
}

func TestGoldenTreePinnedStream(t *testing.T) {
	want := []string{
		"ff76d508d1f0edad8a9d4ab6c8c73cb2363ebedb8d076f8fa0255d4e1b0fd5a4",
		"02ed6aea485b3b11d304f4e4639f9b1651469a053bd72405108d2417d062f2ec",
		"3c9bca1c605f6250d12d393e35bcc76894da1876fecc4a8fdddf95a3394e1154",
	}
	got := digestAfter(t, cf.DefaultTreeConfig(), pinnedStream(t, 45), 5, 25, 45)
	for i, at := range []int{5, 25, 45} {
		if got[i] != want[i] {
			t.Errorf("D0 tree after %d blocks: digest %s, want %s", at, got[i], want[i])
		}
	}
}

// TestGoldenTreeEveryMetric pins a short stream on a tree small enough to
// rebuild several times. The tree descends by centroid distance (D0) and has
// no outlier buffer; the subtest name keeps those two axes so the digest
// stays comparable with earlier runs that varied them.
func TestGoldenTreeEveryMetric(t *testing.T) {
	t.Run("D0/outliers=false", func(t *testing.T) {
		const want = "c746e1aa13dcbdd5e116a8d3a0ad1794e3aeddb82436eeaa3c51942acc19aa31"
		cfg := cf.TreeConfig{Branching: 4, LeafEntries: 6, MaxLeafEntriesTotal: 96}
		if got := digestAfter(t, cfg, pinnedStream(t, 2), 2)[0]; got != want {
			t.Errorf("digest %s, want %s", got, want)
		}
	})
}

// TestInsertAbsorbedAllocations keeps the insert path off the allocator: on a
// warm tree, a point that an existing sub-cluster absorbs costs the point's
// own CF and nothing per tree entry visited (it was two centroid vectors per
// entry, plus one merged CF per level).
func TestInsertAbsorbedAllocations(t *testing.T) {
	tree, err := cf.NewTree(cf.DefaultTreeConfig())
	if err != nil {
		t.Fatal(err)
	}
	stream := pinnedStream(t, 5)
	for _, pts := range stream {
		for _, p := range pts {
			if err := tree.Insert(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The centroid of the heaviest sub-cluster sits well inside it.
	var heaviest cf.CF
	for _, c := range tree.SubClusters() {
		if c.N > heaviest.N {
			heaviest = c
		}
	}
	p, before := heaviest.Centroid(), tree.NumSubClusters()
	allocs := testing.AllocsPerRun(100, func() {
		if err := tree.Insert(p); err != nil {
			t.Fatal(err)
		}
	})
	if got := tree.NumSubClusters(); got != before {
		t.Fatalf("the inserts opened %d new sub-clusters: not absorbed", got-before)
	}
	const ceiling = 1 // measured: NewCF(p)
	if allocs > ceiling {
		t.Fatalf("an absorbed Insert costs %v allocations, ceiling %d", allocs, ceiling)
	}
}

// BenchmarkInsertPinnedStream is phase 1 at the cluster-mem shape: the 45
// blocks of 5,000 points the workload's final tree summarizes, inserted into
// a fresh default tree per iteration. BenchmarkPhase2PinnedStream
// (internal/birch) times phase 2 over the same tree's sub-clusters.
func BenchmarkInsertPinnedStream(b *testing.B) {
	stream := pinnedStream(b, 45)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree, err := cf.NewTree(cf.DefaultTreeConfig())
		if err != nil {
			b.Fatal(err)
		}
		for _, pts := range stream {
			for _, p := range pts {
				if err := tree.Insert(p); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}
