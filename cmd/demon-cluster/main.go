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
// every N blocks atomically with the block, and -scrub verifies every
// record's checksum first (usable alone, without block files). A run over a
// store that holds a checkpoint restores it and skips the block files already
// ingested. The window miner (-window > 0) is in-memory only and rejects
// these flags.
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
	"github.com/demon-mining/demon/internal/textio"
)

func main() { cli.Main("demon-cluster", setup) }

func setup(fs *cli.FlagSet) func(context.Context) error {
	k := fs.Int("k", 4, "number of clusters K")
	window := fs.Int("window", 0, "most recent window size w (0 = unrestricted window)")
	workers := fs.Int("workers", 1, "with -window, goroutines the GEMM slot updates fan across (0 = GOMAXPROCS, 1 = serial)")
	dur := fs.StoreFlags()
	fs.MetricsOutFlag()
	fs.PprofAddrFlag()
	return func(ctx context.Context) error {
		if fs.NArg() == 0 && !dur.ScrubOnly() {
			return cli.Usagef("no block files given")
		}
		return run(ctx, *k, *window, *workers, *dur, fs.Args())
	}
}

func run(ctx context.Context, k, window, workers int, dur cli.StoreFlags, files []string) error {
	var clusters func() ([]demon.Cluster, error)
	model := cli.Model[[]demon.Point]{Read: textio.ReadPointsFile}

	if window > 0 {
		if dur != (cli.StoreFlags{}) {
			return fmt.Errorf("the window cluster miner is in-memory only; -store/-checkpoint-every/-scrub require the unrestricted window")
		}
		m, err := demon.NewClusterWindowMiner(demon.ClusterWindowMinerConfig{K: k, WindowSize: window, Workers: workers})
		if err != nil {
			return err
		}
		model.AddBlock = func(pts []demon.Point) error {
			if err := m.AddBlock(pts); err != nil {
				return err
			}
			fmt.Printf("block %d: window %v\n", m.T(), m.Window())
			return nil
		}
		clusters = m.Clusters
		model.T = m.T
	} else {
		store, err := dur.Open()
		if err != nil {
			return err
		}
		defer demon.CloseStore(store)
		if len(files) == 0 {
			return nil // -scrub only
		}
		m, err := demon.NewClusterMiner(demon.ClusterMinerConfig{K: k, AutoCheckpointEvery: dur.CheckpointEvery, Store: store})
		if err != nil {
			return err
		}
		model.AddBlock = func(pts []demon.Point) error {
			d, err := m.AddBlock(pts)
			if err != nil {
				return err
			}
			fmt.Printf("block %d: absorbed %d points in %v (%d sub-clusters resident)\n",
				m.T(), len(pts), d.Round(100), m.NumSubClusters())
			return nil
		}
		clusters = m.Clusters
		model.Checkpoint, model.T = m.Checkpoint, m.T
	}

	if finished, err := cli.Feed(ctx, dur, files, model); err != nil || !finished {
		return err
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
