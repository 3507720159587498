package borders_test

// The two kernel benchmarks beside the counters they measure. Everything that
// is a paper figure or ablation runs from the lab's registry instead
// (BenchmarkLab in internal/bench); this package is external because the
// prepared counting environment lives there.

import (
	"testing"

	"github.com/demon-mining/demon/internal/bench"
	"github.com/demon-mining/demon/internal/blockseq"
	"github.com/demon-mining/demon/internal/borders"
	"github.com/demon-mining/demon/internal/diskio"
	"github.com/demon-mining/demon/internal/itemset"
	"github.com/demon-mining/demon/internal/quest"
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
	blocks := itemset.NewBlockStore(diskio.NewMemStore())
	var ids []blockseq.ID
	var txs []itemset.Transaction
	for i := 1; i <= 8; i++ {
		blk := gen.Block(blockseq.ID(i), 100_000*benchScale)
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
