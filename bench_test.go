package demon

// One testing.B benchmark per table and figure of the paper's evaluation
// (Section 5), plus the ablations. These drive the same code paths as
// cmd/demon-bench but under the Go benchmark harness so relative numbers
// can be compared with -bench/-benchmem across machines and changes. Scales
// are kept small; run cmd/demon-bench -scale 1.0 for paper-sized runs.

import (
	"sync"
	"testing"

	"github.com/demon-mining/demon/internal/bench"
	"github.com/demon-mining/demon/internal/birch"
	"github.com/demon-mining/demon/internal/blockseq"
	"github.com/demon-mining/demon/internal/borders"
	"github.com/demon-mining/demon/internal/diskio"
	"github.com/demon-mining/demon/internal/focus"
	"github.com/demon-mining/demon/internal/itemset"
	"github.com/demon-mining/demon/internal/pattern"
	"github.com/demon-mining/demon/internal/pointgen"
	"github.com/demon-mining/demon/internal/proxysim"
	"github.com/demon-mining/demon/internal/quest"
)

const benchScale = 0.02

var (
	countEnvOnce sync.Once
	countEnv     *bench.CountEnv
	countEnvErr  error
)

// sharedCountEnv lazily builds one 2M.20L.1I.4pats.4plen environment (scaled)
// shared by the counting benchmarks.
func sharedCountEnv(b *testing.B) *bench.CountEnv {
	b.Helper()
	countEnvOnce.Do(func() {
		countEnv, countEnvErr = bench.NewCountEnv("2M.20L.1I.4pats.4plen", benchScale, 0.01, 1)
	})
	if countEnvErr != nil {
		b.Fatal(countEnvErr)
	}
	return countEnv
}

// BenchmarkFigure2 measures update-phase counting time for a candidate set
// of 30 negative-border itemsets (the typical |S| the paper reports) with
// each strategy — the Figure 2 series.
func BenchmarkFigure2(b *testing.B) {
	env := sharedCountEnv(b)
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

// BenchmarkFigure3 measures the ECUT+ pair materialization (whose entry
// volume is the Figure 3 space table) for one block.
func BenchmarkFigure3(b *testing.B) {
	env := sharedCountEnv(b)
	blk, err := env.Blocks.Get(1)
	if err != nil {
		b.Fatal(err)
	}
	var pairs []itemset.Itemset
	for k := range env.Lattice.Frequent {
		if x := k.Itemset(); len(x) == 2 {
			pairs = append(pairs, x)
		}
	}
	itemset.SortItemsets(pairs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := env.TIDs.MaterializePairs(blk, pairs, -1); err != nil {
			b.Fatal(err)
		}
	}
}

// maintainBench benchmarks one BORDERS maintenance step (Figures 4–7): a
// second block with the given distribution is added to the shared first
// block under each counting strategy.
func maintainBench(b *testing.B, secondSpec string, minsup float64) {
	env, err := bench.NewCountEnv("2M.20L.1I.4pats.4plen", benchScale, minsup, 1)
	if err != nil {
		b.Fatal(err)
	}
	spec2, err := quest.ParseSpec(secondSpec)
	if err != nil {
		b.Fatal(err)
	}
	spec2.Seed = 101
	gen2, err := quest.New(spec2)
	if err != nil {
		b.Fatal(err)
	}
	gen2.SetNextTID(env.NumTx)
	blk2 := gen2.Block(2, bestEffortSize(50_000))
	if err := env.Blocks.Put(blk2); err != nil {
		b.Fatal(err)
	}
	if err := env.TIDs.Materialize(blk2); err != nil {
		b.Fatal(err)
	}
	var pairs []itemset.Itemset
	for k := range env.Lattice.Frequent {
		if x := k.Itemset(); len(x) == 2 {
			pairs = append(pairs, x)
		}
	}
	itemset.SortItemsets(pairs)
	if len(pairs) > 0 {
		if _, _, err := env.TIDs.MaterializePairs(blk2, pairs, -1); err != nil {
			b.Fatal(err)
		}
	}
	base := borders.FromLattice(env.Lattice, 1)

	counters := []borders.Counter{
		borders.PTScan{Blocks: env.Blocks},
		borders.ECUT{TIDs: env.TIDs},
		borders.ECUTPlus{TIDs: env.TIDs},
	}
	for _, counter := range counters {
		b.Run(counter.Name(), func(b *testing.B) {
			mt := &borders.Maintainer{Store: env.Blocks, Counter: counter, MinSupport: minsup}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				model := base.Clone()
				b.StartTimer()
				if _, err := mt.AddBlock(model, blk2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func bestEffortSize(n int) int {
	s := int(float64(n) * benchScale)
	if s < 200 {
		s = 200
	}
	return s
}

// BenchmarkFigure4 — second block ∗M.20L.1I.8pats.4plen, κ = 0.008.
func BenchmarkFigure4(b *testing.B) { maintainBench(b, "2M.20L.1I.8pats.4plen", 0.008) }

// BenchmarkFigure5 — second block ∗M.20L.1I.8pats.4plen, κ = 0.009.
func BenchmarkFigure5(b *testing.B) { maintainBench(b, "2M.20L.1I.8pats.4plen", 0.009) }

// BenchmarkFigure6 — second block ∗M.20L.1I.4pats.5plen, κ = 0.008.
func BenchmarkFigure6(b *testing.B) { maintainBench(b, "2M.20L.1I.4pats.5plen", 0.008) }

// BenchmarkFigure7 — second block ∗M.20L.1I.4pats.5plen, κ = 0.009.
func BenchmarkFigure7(b *testing.B) { maintainBench(b, "2M.20L.1I.4pats.5plen", 0.009) }

// BenchmarkFigure8 compares the non-incremental BIRCH baseline against
// BIRCH+ for one block arrival.
func BenchmarkFigure8(b *testing.B) {
	pcfg, err := pointgen.ParseSpec("1M.50c.5d")
	if err != nil {
		b.Fatal(err)
	}
	pcfg.Seed, pcfg.Noise = 1, 0.02
	gen, err := pointgen.New(pcfg)
	if err != nil {
		b.Fatal(err)
	}
	first := gen.Block(1, bestEffortSize(1_000_000))
	p2 := pcfg
	p2.Seed = 8
	gen2, err := pointgen.New(p2)
	if err != nil {
		b.Fatal(err)
	}
	second := gen2.Block(2, bestEffortSize(400_000))
	bcfg := birch.DefaultConfig(pcfg.K)

	b.Run("BIRCH", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := birch.Run(bcfg, first.Points, second.Points); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("BIRCH+", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			plus, err := birch.NewPlus(bcfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := plus.AddBlock(first.Points); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if err := plus.AddBlock(second.Points); err != nil {
				b.Fatal(err)
			}
			if _, err := plus.Clusters(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFigure9 runs pattern detection over the simulated proxy trace at
// 24-hour granularity (the qualitative Figure 9 table's workload).
func BenchmarkFigure9(b *testing.B) {
	trace := proxysim.Generate(proxysim.Config{Seed: 1, RequestsPerHour: 60})
	blocks, _, err := trace.Segment(24)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		differ := focus.ItemsetDiffer{MinSupport: 0.01}
		det, err := pattern.New[*itemset.TxBlock](differ, 0.01)
		if err != nil {
			b.Fatal(err)
		}
		for _, blk := range blocks {
			if blk.Len() == 0 {
				continue
			}
			if _, err := det.AddBlock(blk.ID, blk); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFigure10 measures the incremental cost of one more block in the
// compact-sequence maintenance after the full 6-hour trace was ingested —
// the right edge of the Figure 10 series.
func BenchmarkFigure10(b *testing.B) {
	trace := proxysim.Generate(proxysim.Config{Seed: 1, RequestsPerHour: 60})
	blocks, _, err := trace.Segment(6)
	if err != nil {
		b.Fatal(err)
	}
	differ := focus.ItemsetDiffer{MinSupport: 0.01}
	det, err := pattern.New[*itemset.TxBlock](differ, 0.01)
	if err != nil {
		b.Fatal(err)
	}
	var last *itemset.TxBlock
	for _, blk := range blocks[:len(blocks)-1] {
		if blk.Len() == 0 {
			continue
		}
		if _, err := det.AddBlock(blk.ID, blk); err != nil {
			b.Fatal(err)
		}
		last = blk
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Each iteration appends a fresh copy of the final block under a
		// new identifier; state grows slowly but the dominant cost — the
		// deviations against all earlier blocks — is what Figure 10 plots.
		id := last.ID + blockseq.ID(i+10)
		blk := &itemset.TxBlock{ID: id, FirstTID: last.FirstTID, Txs: last.Txs}
		if _, err := det.AddBlock(id, blk); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationGEMMvsAuM compares the per-arrival cost of GEMM against
// the add+delete variant AuM on a sliding window (Section 3.2.4).
func BenchmarkAblationGEMMvsAuM(b *testing.B) {
	cfg := bench.DefaultGemmVsAuMConfig(benchScale)
	cfg.Steps = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.GemmVsAuM(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationECUTPlusBudget sweeps the pair-materialization budget.
func BenchmarkAblationECUTPlusBudget(b *testing.B) {
	cfg := bench.DefaultBudgetConfig(benchScale)
	cfg.Fractions = []float64{0, 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.ECUTPlusBudget(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationThresholdChange measures raising vs lowering κ.
func BenchmarkAblationThresholdChange(b *testing.B) {
	cfg := bench.DefaultKappaConfig(benchScale)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.KappaChange(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDBSCANInsertVsDelete measures the per-operation cost asymmetry of
// incremental DBSCAN (the Section 3.2.4 motivation for GEMM).
func BenchmarkDBSCANInsertVsDelete(b *testing.B) {
	cfg := bench.DefaultDBSCANCostConfig()
	cfg.Points = 1500
	cfg.Ops = 100
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.DBSCANCost(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelCounting measures block-sharded counting against the
// serial baseline over a multi-block database.
func BenchmarkParallelCounting(b *testing.B) {
	spec, err := quest.ParseSpec("2M.20L.1I.4pats.4plen")
	if err != nil {
		b.Fatal(err)
	}
	spec.Seed = 1
	gen, err := quest.New(spec)
	if err != nil {
		b.Fatal(err)
	}
	store := diskio.NewMemStore()
	blocks := itemset.NewBlockStore(store)
	var ids []blockseq.ID
	var txs []itemset.Transaction
	for i := 1; i <= 8; i++ {
		blk := gen.Block(blockseq.ID(i), bestEffortSize(100_000))
		if err := blocks.Put(blk); err != nil {
			b.Fatal(err)
		}
		ids = append(ids, blk.ID)
		txs = append(txs, blk.Txs...)
	}
	lat, err := itemset.Apriori(itemset.SliceSource(txs), nil, 0.01)
	if err != nil {
		b.Fatal(err)
	}
	sets := lat.BorderSets()
	if len(sets) > 40 {
		sets = sets[:40]
	}
	serial := borders.PTScan{Blocks: blocks}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := serial.Count(sets, ids); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		pc := borders.ParallelCounter{Inner: serial}
		for i := 0; i < b.N; i++ {
			if _, err := pc.Count(sets, ids); err != nil {
				b.Fatal(err)
			}
		}
	})
}
