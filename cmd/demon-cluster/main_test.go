package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	demon "github.com/demon-mining/demon"
	"github.com/demon-mining/demon/internal/cli"
)

func writePointBlocks(t *testing.T) []string {
	t.Helper()
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(1))
	var paths []string
	for b := 0; b < 2; b++ {
		p := filepath.Join(dir, fmt.Sprintf("block-%d.txt", b))
		f, err := os.Create(p)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			cx := float64((i % 2) * 20)
			fmt.Fprintf(f, "%f %f\n", cx+rng.NormFloat64(), rng.NormFloat64())
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	return paths
}

func TestRunUnrestricted(t *testing.T) {
	paths := writePointBlocks(t)
	if err := run(context.Background(), 2, 0, 2, cli.StoreFlags{}, paths); err != nil {
		t.Fatal(err)
	}
}

func TestRunWindowed(t *testing.T) {
	paths := writePointBlocks(t)
	if err := run(context.Background(), 2, 1, 2, cli.StoreFlags{}, paths); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	paths := writePointBlocks(t)
	if err := run(context.Background(), 0, 0, 2, cli.StoreFlags{}, paths); err == nil {
		t.Error("accepted k = 0")
	}
	if err := run(context.Background(), 2, 0, 2, cli.StoreFlags{}, []string{"/nonexistent"}); err == nil {
		t.Error("accepted missing file")
	}
}

// checkpointT reopens the store a run left and returns the position of its
// checkpoint.
func checkpointT(t *testing.T, url string) demon.BlockID {
	t.Helper()
	store, err := cli.StoreFlags{Dir: url}.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer demon.CloseStore(store)
	m, err := demon.RestoreClusterMiner(demon.ClusterMinerConfig{K: 2, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	return m.T()
}

// TestRunDurableStoreResume: a second run over the same store continues
// from its checkpoint, skipping the file it covers, without a flag asking
// for it.
func TestRunDurableStoreResume(t *testing.T) {
	paths := writePointBlocks(t)
	dir := t.TempDir()

	if err := run(context.Background(), 2, 0, 2, cli.StoreFlags{Dir: dir, CheckpointEvery: 1}, paths[:1]); err != nil {
		t.Fatal(err)
	}
	// The second run never reads the file the checkpoint covers.
	if err := os.Remove(paths[0]); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), 2, 0, 2, cli.StoreFlags{Dir: dir, CheckpointEvery: 1}, paths); err != nil {
		t.Fatal(err)
	}
	if got := checkpointT(t, dir); got != 2 {
		t.Errorf("after the second run the checkpoint covers %d blocks, want 2", got)
	}
	// Scrub-only invocation.
	if err := run(context.Background(), 2, 0, 2, cli.StoreFlags{Dir: dir, Scrub: true}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunKVFileBackendResume(t *testing.T) {
	paths := writePointBlocks(t)
	dir := t.TempDir()

	if err := run(context.Background(), 2, 0, 2, cli.StoreFlags{Dir: "kvfile:" + dir + "/store.kv", CheckpointEvery: 1}, paths[:1]); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "store.kv")); err != nil {
		t.Fatalf("kvfile backend left no store.kv: %v", err)
	}
	if err := os.Remove(paths[0]); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), 2, 0, 2, cli.StoreFlags{Dir: "kvfile:" + dir + "/store.kv", CheckpointEvery: 1}, paths); err != nil {
		t.Fatal(err)
	}
	if got := checkpointT(t, "kvfile:"+dir+"/store.kv"); got != 2 {
		t.Errorf("after the second run the checkpoint covers %d blocks, want 2", got)
	}
	// The same store behind a read cache.
	if err := run(context.Background(), 2, 0, 2, cli.StoreFlags{Dir: "kvfile:" + dir + "/store.kv?cache=64kb", Scrub: true}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunDurabilityFlagErrors(t *testing.T) {
	paths := writePointBlocks(t)
	if err := run(context.Background(), 2, 1, 2, cli.StoreFlags{Dir: t.TempDir()}, paths); err == nil {
		t.Error("window miner accepted -store")
	}
	if err := run(context.Background(), 2, 0, 2, cli.StoreFlags{Dir: "bogus:" + t.TempDir()}, paths); err == nil {
		t.Error("accepted an unknown -store scheme")
	}
}

func TestRunInterruptCheckpointsAndResumes(t *testing.T) {
	paths := writePointBlocks(t)
	dir := t.TempDir()

	// A cancelled context (the SIGTERM path) stops intake before the first
	// block but still checkpoints cleanly.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := run(cancelled, 2, 0, 2, cli.StoreFlags{Dir: dir}, paths); err != nil {
		t.Fatalf("interrupted run: %v", err)
	}

	// A second run over the interrupted store ingests everything the signal
	// prevented.
	if err := run(context.Background(), 2, 0, 2, cli.StoreFlags{Dir: dir}, paths); err != nil {
		t.Fatalf("run after interrupt: %v", err)
	}
	if got := checkpointT(t, dir); got != 2 {
		t.Errorf("after the interrupt and a second run the checkpoint covers %d blocks, want 2", got)
	}

	// Without a store the interrupt is still a clean exit.
	if err := run(cancelled, 2, 0, 2, cli.StoreFlags{}, paths); err != nil {
		t.Fatalf("interrupted in-memory run: %v", err)
	}
}
