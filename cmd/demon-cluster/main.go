// Command demon-cluster maintains a cluster model over a systematically
// evolving database of points with BIRCH+, feeding block files in order.
//
// Usage:
//
//	demon-cluster -k 5 data/block-*.txt
//	demon-cluster -k 5 -window 3 data/block-*.txt
//
// With -store DIR the unrestricted miner keeps its point blocks and CF-tree
// checkpoints in a crash-safe on-disk store; -checkpoint-every N checkpoints
// every N blocks atomically with the block, -resume restores the last
// checkpoint and skips the block files already ingested, and -scrub verifies
// every record's checksum first (usable alone, without block files). The
// window miner (-window > 0) is in-memory only and rejects these flags.
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
	"github.com/demon-mining/demon/internal/obs"
	"github.com/demon-mining/demon/internal/obs/log"
	"github.com/demon-mining/demon/internal/textio"
	"github.com/demon-mining/demon/internal/version"
)

func main() {
	k := flag.Int("k", 4, "number of clusters K")
	window := flag.Int("window", 0, "most recent window size w (0 = unrestricted window)")
	workers := flag.Int("workers", 1, "parallel maintenance worker goroutines (0 = GOMAXPROCS, 1 = serial)")
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

	version.PrintAndExitIf(*showVersion, "demon-cluster", os.Exit, os.Stdout)

	if flag.NArg() == 0 && !(*scrub && *storeDir != "") {
		fmt.Fprintln(os.Stderr, "demon-cluster: no block files given")
		os.Exit(2)
	}
	finish, err := logCLI.Apply(obs.Default())
	if err != nil {
		fmt.Fprintln(os.Stderr, "demon-cluster:", err)
		os.Exit(2)
	}
	// On SIGTERM/SIGINT the in-flight block finishes its atomic store
	// transaction, a checkpoint is taken, and the run exits cleanly so that
	// -resume picks up exactly where the signal landed.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	if err := run(ctx, *k, *window, *workers, *storeDir, *storeBackend, *resume, *ckptEvery, *scrub, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "demon-cluster:", err)
		os.Exit(1)
	}
	if err := finish(); err != nil {
		fmt.Fprintln(os.Stderr, "demon-cluster:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, k, window, workers int, storeDir, storeBackend string, resume bool, ckptEvery int, scrub bool, files []string) error {
	var addBlock func(pts []demon.Point) error
	var clusters func() ([]demon.Cluster, error)
	var checkpoint func() error
	var ingested func() demon.BlockID

	if window > 0 {
		if storeDir != "" || storeBackend != "" || resume || ckptEvery > 0 || scrub {
			return fmt.Errorf("the window cluster miner is in-memory only; -store/-resume/-checkpoint-every/-scrub require the unrestricted window")
		}
		m, err := demon.NewClusterWindowMiner(demon.ClusterWindowMinerConfig{K: k, WindowSize: window, Workers: workers})
		if err != nil {
			return err
		}
		addBlock = func(pts []demon.Point) error {
			if err := m.AddBlock(pts); err != nil {
				return err
			}
			fmt.Printf("block %d: window %v\n", m.T(), m.Window())
			return nil
		}
		clusters = m.Clusters
		ingested = m.T
	} else {
		if (resume || ckptEvery > 0 || scrub || storeBackend != "") && storeDir == "" {
			return fmt.Errorf("-resume, -checkpoint-every, -scrub and -store-backend require -store")
		}
		cfg := demon.ClusterMinerConfig{K: k, Workers: workers, AutoCheckpointEvery: ckptEvery}
		if storeDir != "" {
			url, err := demon.DirStoreURL(storeBackend, storeDir)
			if err != nil {
				return err
			}
			store, err := demon.OpenStore(url)
			if err != nil {
				return err
			}
			defer demon.CloseStore(store)
			if scrub {
				rep, err := demon.ScrubStore(store, "")
				if err != nil {
					return err
				}
				fmt.Printf("scrub: %d records checked, %d quarantined\n", rep.Checked, len(rep.Quarantined))
				for _, key := range rep.Quarantined {
					fmt.Printf("scrub: quarantined %s\n", key)
				}
			}
			cfg.Store = store
		}
		if len(files) == 0 {
			return nil // -scrub only
		}
		var m *demon.ClusterMiner
		var err error
		if resume {
			m, err = demon.ResumeClusterMiner(cfg)
		} else {
			m, err = demon.NewClusterMiner(cfg)
		}
		if err != nil {
			return err
		}
		addBlock = func(pts []demon.Point) error {
			d, err := m.AddBlock(pts)
			if err != nil {
				return err
			}
			fmt.Printf("block %d: absorbed %d points in %v (%d sub-clusters resident)\n",
				m.T(), len(pts), d.Round(100), m.NumSubClusters())
			return nil
		}
		clusters = m.Clusters
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
		pts, err := textio.ReadPointsFile(path)
		if err != nil {
			return err
		}
		if err := addBlock(pts); err != nil {
			return err
		}
	}

	if checkpoint != nil && storeDir != "" {
		if err := checkpoint(); err != nil {
			return err
		}
		fmt.Printf("checkpointed at block %d\n", ingested())
	}
	if interrupted {
		if storeDir != "" {
			fmt.Printf("interrupted after block %d; rerun with -resume to continue\n", ingested())
		} else {
			fmt.Printf("interrupted after block %d (no -store: progress not saved)\n", ingested())
		}
		return nil
	}

	cs, err := clusters()
	if err != nil {
		return err
	}
	fmt.Printf("\n%d clusters:\n", len(cs))
	for i, c := range cs {
		fmt.Printf("  #%d: n=%d radius=%.3f centroid=%.3v\n", i, c.N, c.Radius, c.Centroid)
	}
	return nil
}
