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
// checksummed records, retry on transient errors) and a checkpoint is taken
// at the end; -checkpoint-every N additionally checkpoints every N blocks,
// atomically with the block itself. -resume reopens the store, restores the
// last checkpoint, and skips the block files already ingested:
//
//	demon-miner -minsup 0.01 -store state/ -checkpoint-every 10 data/block-*.txt
//	demon-miner -minsup 0.01 -store state/ -resume data/block-*.txt
//	demon-miner -store state/ -scrub
//
// -scrub verifies every record's checksum first, quarantining corrupt ones,
// and may be used alone (no block files) to audit a store.
//
// SIGTERM/SIGINT interrupt the run cleanly: the in-flight block finishes its
// atomic store transaction, a checkpoint is taken (with -store), and the
// next -resume continues exactly where the signal landed.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	demon "github.com/demon-mining/demon"
	"github.com/demon-mining/demon/internal/diskio"
	"github.com/demon-mining/demon/internal/obs"
	"github.com/demon-mining/demon/internal/obs/log"
	"github.com/demon-mining/demon/internal/textio"
	"github.com/demon-mining/demon/internal/version"
)

func main() {
	minsup := flag.Float64("minsup", 0.01, "minimum support κ in (0,1)")
	strategy := flag.String("strategy", "ptscan", "counting strategy: ptscan, ecut, ecutplus")
	window := flag.Int("window", 0, "most recent window size w (0 = unrestricted window)")
	bss := flag.String("bss", "", "window-relative BSS bit string of length w (requires -window)")
	every := flag.Int("every", 0, "periodic window-independent BSS: select every Nth block")
	offset := flag.Int("offset", 1, "offset of the periodic BSS")
	workers := flag.Int("workers", 1, "parallel-ingestion worker goroutines (0 = GOMAXPROCS, 1 = serial)")
	top := flag.Int("top", 20, "how many frequent itemsets to print")
	minconf := flag.Float64("rules", 0, "also print association rules at this minimum confidence (0 = off)")
	storeDir := flag.String("store", "", "keep state in a crash-safe on-disk store: a directory, or a store URL like kvfile:state.kv?cache=16mb")
	storeBackend := flag.String("store-backend", "", "backend of a bare-directory -store: file (default) or kvfile")
	resume := flag.Bool("resume", false, "restore the last checkpoint from -store and skip already-ingested block files")
	ckptEvery := flag.Int("checkpoint-every", 0, "checkpoint automatically every N blocks (requires -store)")
	scrub := flag.Bool("scrub", false, "verify every record checksum in -store before mining, quarantining corrupt ones")
	showVersion := flag.Bool("version", false, "print the build identity and exit")
	logCLI := log.RegisterFlags(flag.CommandLine)
	logCLI.RegisterMetricsOut(flag.CommandLine)
	logCLI.RegisterPprofAddr(flag.CommandLine)
	flag.Parse()

	version.PrintAndExitIf(*showVersion, "demon-miner", os.Exit, os.Stdout)

	dur := durability{dir: *storeDir, backend: *storeBackend, resume: *resume, every: *ckptEvery, scrub: *scrub}
	if flag.NArg() == 0 && !(*scrub && *storeDir != "") {
		fmt.Fprintln(os.Stderr, "demon-miner: no block files given")
		os.Exit(2)
	}
	finish, err := logCLI.Apply(obs.Default())
	if err != nil {
		fmt.Fprintln(os.Stderr, "demon-miner:", err)
		os.Exit(2)
	}
	// On SIGTERM/SIGINT the in-flight block finishes its atomic store
	// transaction, a checkpoint is taken, and the run exits cleanly so that
	// -resume picks up exactly where the signal landed.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	if err := run(ctx, *minsup, *strategy, *window, *bss, *every, *offset, *workers, *top, *minconf, dur, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "demon-miner:", err)
		os.Exit(1)
	}
	if err := finish(); err != nil {
		fmt.Fprintln(os.Stderr, "demon-miner:", err)
		os.Exit(1)
	}
}

// durability bundles the crash-safety flags.
type durability struct {
	dir     string
	backend string
	resume  bool
	every   int
	scrub   bool
}

// openStore builds the configured store: the durable on-disk stack when
// -store was given (a directory resolved through -store-backend, or a full
// store URL passed through), a plain in-memory store otherwise. With -scrub
// it verifies every record first and prints the report.
func (d durability) openStore() (demon.Store, error) {
	if d.resume && d.dir == "" {
		return nil, fmt.Errorf("-resume requires -store")
	}
	if d.every > 0 && d.dir == "" {
		return nil, fmt.Errorf("-checkpoint-every requires -store")
	}
	if d.scrub && d.dir == "" {
		return nil, fmt.Errorf("-scrub requires -store")
	}
	if d.dir == "" {
		if d.backend != "" {
			return nil, fmt.Errorf("-store-backend requires -store")
		}
		return demon.NewMemStore(), nil
	}
	url, err := demon.DirStoreURL(d.backend, d.dir)
	if err != nil {
		return nil, err
	}
	store, err := demon.OpenStore(url)
	if err != nil {
		return nil, err
	}
	if d.scrub {
		rep, err := demon.ScrubStore(store, "")
		if err != nil {
			return nil, err
		}
		fmt.Printf("scrub: %d records checked, %d quarantined\n", rep.Checked, len(rep.Quarantined))
		for _, k := range rep.Quarantined {
			fmt.Printf("scrub: quarantined %s\n", k)
		}
	}
	return store, nil
}

func run(ctx context.Context, minsup float64, strategyName string, window int, bssStr string, every, offset, workers, top int, minconf float64, dur durability, files []string) error {
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
	store, err := dur.openStore()
	if err != nil {
		return err
	}
	defer demon.CloseStore(store)
	diskio.Observe(obs.Default(), "store", store)
	if len(files) == 0 {
		return nil // -scrub only
	}

	var addBlock func(rows [][]demon.Item) error
	var frequents func() []demon.ItemsetSupport
	var rules func(float64) ([]demon.Rule, error)
	var checkpoint func() error
	var ingested func() demon.BlockID

	if window > 0 {
		cfg := demon.ItemsetWindowMinerConfig{
			MinSupport:          minsup,
			Strategy:            strategy,
			WindowSize:          window,
			BSS:                 indep,
			Store:               store,
			Workers:             workers,
			AutoCheckpointEvery: dur.every,
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
		var m *demon.ItemsetWindowMiner
		if dur.resume {
			m, err = demon.ResumeItemsetWindowMiner(cfg)
		} else {
			m, err = demon.NewItemsetWindowMiner(cfg)
		}
		if err != nil {
			return err
		}
		addBlock = func(rows [][]demon.Item) error {
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
		checkpoint = m.Checkpoint
		ingested = m.T
	} else {
		if bssStr != "" {
			return fmt.Errorf("-bss requires -window")
		}
		cfg := demon.ItemsetMinerConfig{
			MinSupport:          minsup,
			Strategy:            strategy,
			BSS:                 indep,
			Store:               store,
			Workers:             workers,
			AutoCheckpointEvery: dur.every,
		}
		var m *demon.ItemsetMiner
		if dur.resume {
			m, err = demon.ResumeItemsetMiner(cfg)
		} else {
			m, err = demon.NewItemsetMiner(cfg)
		}
		if err != nil {
			return err
		}
		addBlock = func(rows [][]demon.Item) error {
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
		checkpoint = m.Checkpoint
		ingested = m.T
	}

	// On resume, block files the checkpoint already covers are skipped; the
	// files must be passed in the same order as the original run.
	if done := int(ingested()); done > 0 {
		if done > len(files) {
			done = len(files)
		}
		fmt.Printf("resumed at block %d: skipping %d already-ingested file(s)\n", ingested(), done)
		files = files[done:]
	}

	// The context is checked only between blocks: a signal mid-block lets
	// the block's atomic store transaction finish first.
	interrupted := false
	for _, path := range files {
		if ctx.Err() != nil {
			interrupted = true
			break
		}
		rows, err := textio.ReadTransactionsFile(path)
		if err != nil {
			return err
		}
		if err := addBlock(rows); err != nil {
			return err
		}
	}

	if dur.dir != "" {
		if err := checkpoint(); err != nil {
			return err
		}
		fmt.Printf("checkpointed at block %d\n", ingested())
	}
	if interrupted {
		if dur.dir != "" {
			fmt.Printf("interrupted after block %d; rerun with -resume to continue\n", ingested())
		} else {
			fmt.Printf("interrupted after block %d (no -store: progress not saved)\n", ingested())
		}
		return nil
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
