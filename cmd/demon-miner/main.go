// Command demon-miner maintains the set of frequent itemsets over a
// systematically evolving transactional database, feeding block files in
// order to the DEMON maintenance algorithms.
//
// Usage:
//
//	demon-miner -minsup 0.01 -strategy ecut data/block-*.txt
//	demon-miner -minsup 0.01 -window 4 -bss 1010 data/block-*.txt
//	demon-miner -minsup 0.01 -every 7 -offset 1 data/block-*.txt
//
// Without -window the unrestricted window option is used; -every/-offset
// give a periodic window-independent BSS ("every 7th block starting at 1").
// With -window w the most recent window option is used; -bss optionally
// gives a window-relative bit string of length w. After each block the tool
// prints a maintenance report, and at the end the frequent itemsets.
//
// With -store DIR state goes to a crash-safe on-disk store (atomic writes,
// checksummed records) and a checkpoint is taken
// at the end; -checkpoint-every N additionally checkpoints every N blocks,
// atomically with the block itself. A run over a store that holds a
// checkpoint restores it and skips the block files already ingested; to
// start over, name an empty store:
//
//	demon-miner -minsup 0.01 -store state/ -checkpoint-every 10 data/block-*.txt
//	demon-miner -store state/ -scrub
//
// -scrub verifies every record's checksum first, quarantining corrupt ones,
// and may be used alone (no block files) to audit a store.
//
// SIGTERM/SIGINT interrupt the run cleanly: the in-flight block finishes its
// atomic store transaction, a checkpoint is taken (with -store), and the
// next run over the same store continues exactly where the signal landed.
package main

import (
	"context"
	"fmt"

	demon "github.com/demon-mining/demon"
	"github.com/demon-mining/demon/internal/cli"
	"github.com/demon-mining/demon/internal/diskio"
	"github.com/demon-mining/demon/internal/obs"
	"github.com/demon-mining/demon/internal/textio"
)

func main() { cli.Main("demon-miner", setup) }

func setup(fs *cli.FlagSet) func(context.Context) error {
	minsup := fs.Float64("minsup", 0.01, "minimum support κ in (0,1)")
	strategy := fs.String("strategy", "ptscan", "counting strategy: ptscan, ecut, ecutplus")
	window := fs.Int("window", 0, "most recent window size w (0 = unrestricted window)")
	bss := fs.String("bss", "", "window-relative BSS bit string of length w (requires -window)")
	every := fs.Int("every", 0, "periodic window-independent BSS: select every Nth block")
	offset := fs.Int("offset", 1, "offset of the periodic BSS")
	workers := fs.Int("workers", 1, "with -window, goroutines the GEMM slot updates fan across (0 = GOMAXPROCS, 1 = serial)")
	top := fs.Int("top", 20, "how many frequent itemsets to print")
	minconf := fs.Float64("rules", 0, "also print association rules at this minimum confidence (0 = off)")
	dur := fs.StoreFlags()
	fs.MetricsOutFlag()
	fs.PprofAddrFlag()
	return func(ctx context.Context) error {
		if fs.NArg() == 0 && !dur.ScrubOnly() {
			return cli.Usagef("no block files given")
		}
		return run(ctx, *minsup, *strategy, *window, *bss, *every, *offset, *workers, *top, *minconf, *dur, fs.Args())
	}
}

func run(ctx context.Context, minsup float64, strategyName string, window int, bssStr string, every, offset, workers, top int, minconf float64, dur cli.StoreFlags, files []string) error {
	strategy, err := demon.ParseCountingStrategy(strategyName)
	if err != nil {
		return err
	}
	var indep demon.BSS
	if every > 0 {
		indep = demon.EveryNth(every, offset)
	}

	// One explicit store for the whole run so its I/O counters show up in
	// the metrics snapshot next to the compute-phase timers.
	store, err := dur.Open()
	if err != nil {
		return err
	}
	if store == nil {
		store = demon.NewMemStore()
	}
	defer demon.CloseStore(store)
	diskio.Observe(obs.Default(), "store", store)
	if len(files) == 0 {
		return nil // -scrub only
	}

	var frequents func() []demon.ItemsetSupport
	var rules func(float64) ([]demon.Rule, error)
	model := cli.Model[[][]demon.Item]{Read: textio.ReadTransactionsFile}

	if window > 0 {
		cfg := demon.ItemsetWindowMinerConfig{
			MinSupport:          minsup,
			Strategy:            strategy,
			WindowSize:          window,
			BSS:                 indep,
			Store:               store,
			Workers:             workers,
			AutoCheckpointEvery: dur.CheckpointEvery,
		}
		if bssStr != "" {
			rel, err := demon.ParseWindowRelBSS(bssStr)
			if err != nil {
				return err
			}
			if rel.Len() != window {
				return fmt.Errorf("-bss length %d != -window %d", rel.Len(), window)
			}
			cfg.WindowRelBSS = rel
			cfg.WindowSize = 0
		}
		m, err := demon.NewItemsetWindowMiner(cfg)
		if err != nil {
			return err
		}
		model.AddBlock = func(rows [][]demon.Item) error {
			rep, err := m.AddBlock(rows)
			if err != nil {
				return err
			}
			fmt.Printf("block %d: window %v, response %v, |L| = %d\n",
				rep.Block, m.Window(), rep.Response.Round(100), len(m.Current().Frequent))
			return nil
		}
		frequents = m.FrequentItemsets
		rules = m.Rules
		model.Checkpoint, model.T = m.Checkpoint, m.T
	} else {
		if bssStr != "" {
			return fmt.Errorf("-bss requires -window")
		}
		cfg := demon.ItemsetMinerConfig{
			MinSupport:          minsup,
			Strategy:            strategy,
			BSS:                 indep,
			Store:               store,
			AutoCheckpointEvery: dur.CheckpointEvery,
		}
		m, err := demon.NewItemsetMiner(cfg)
		if err != nil {
			return err
		}
		model.AddBlock = func(rows [][]demon.Item) error {
			rep, err := m.AddBlock(rows)
			if err != nil {
				return err
			}
			fmt.Printf("block %d: selected=%v detection=%v update=%v promoted=%d demoted=%d candidates=%d |L|=%d\n",
				rep.Block, rep.Selected, rep.Detection.Round(100), rep.Update.Round(100),
				rep.Promoted, rep.Demoted, rep.CandidatesCounted, len(m.FrequentItemsets()))
			return nil
		}
		frequents = m.FrequentItemsets
		rules = m.Rules
		model.Checkpoint, model.T = m.Checkpoint, m.T
	}

	if finished, err := cli.Feed(ctx, dur, files, model); err != nil || !finished {
		return err
	}

	fi := frequents()
	fmt.Printf("\n%d frequent itemsets at κ=%v; top %d by support:\n", len(fi), minsup, top)
	// Selection-sort the top entries by support.
	for i := 0; i < len(fi) && i < top; i++ {
		best := i
		for j := i + 1; j < len(fi); j++ {
			if fi[j].Support > fi[best].Support {
				best = j
			}
		}
		fi[i], fi[best] = fi[best], fi[i]
		fmt.Printf("  %-24s support %.4f (count %d)\n", fi[i].Itemset, fi[i].Support, fi[i].Count)
	}

	if minconf > 0 {
		rs, err := rules(minconf)
		if err != nil {
			return err
		}
		fmt.Printf("\n%d association rules at confidence >= %v:\n", len(rs), minconf)
		for i, r := range rs {
			if i == top {
				fmt.Printf("  ... and %d more\n", len(rs)-top)
				break
			}
			fmt.Printf("  %s\n", r)
		}
	}
	return nil
}
