package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

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

func TestRunDurableStoreResume(t *testing.T) {
	paths := writePointBlocks(t)
	dir := t.TempDir()

	if err := run(context.Background(), 2, 0, 2, cli.StoreFlags{Dir: dir, CheckpointEvery: 1}, paths[:1]); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), 2, 0, 2, cli.StoreFlags{Dir: dir, Resume: true, CheckpointEvery: 1}, paths); err != nil {
		t.Fatal(err)
	}
	// Scrub-only invocation.
	if err := run(context.Background(), 2, 0, 2, cli.StoreFlags{Dir: dir, Scrub: true}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunKVFileBackendResume(t *testing.T) {
	paths := writePointBlocks(t)
	dir := t.TempDir()

	if err := run(context.Background(), 2, 0, 2, cli.StoreFlags{Dir: dir, Backend: "kvfile", CheckpointEvery: 1}, paths[:1]); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "store.kv")); err != nil {
		t.Fatalf("kvfile backend left no store.kv: %v", err)
	}
	if err := run(context.Background(), 2, 0, 2, cli.StoreFlags{Dir: dir, Backend: "kvfile", Resume: true, CheckpointEvery: 1}, paths); err != nil {
		t.Fatal(err)
	}
	// A full store URL is passed through, -store-backend not required.
	if err := run(context.Background(), 2, 0, 2, cli.StoreFlags{Dir: "kvfile:" + dir + "/store.kv?cache=64kb", Scrub: true}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunDurabilityFlagErrors(t *testing.T) {
	paths := writePointBlocks(t)
	if err := run(context.Background(), 2, 1, 2, cli.StoreFlags{Dir: t.TempDir()}, paths); err == nil {
		t.Error("window miner accepted -store")
	}
	if err := run(context.Background(), 2, 0, 2, cli.StoreFlags{Resume: true}, paths); err == nil {
		t.Error("accepted -resume without -store")
	}
	if err := run(context.Background(), 2, 0, 2, cli.StoreFlags{Backend: "kvfile"}, paths); err == nil {
		t.Error("accepted -store-backend without -store")
	}
	if err := run(context.Background(), 2, 0, 2, cli.StoreFlags{Dir: t.TempDir(), Backend: "bogus"}, paths); err == nil {
		t.Error("accepted an unknown -store-backend")
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

	// The interrupted store resumes and ingests everything the signal
	// prevented.
	if err := run(context.Background(), 2, 0, 2, cli.StoreFlags{Dir: dir, Resume: true}, paths); err != nil {
		t.Fatalf("resume after interrupt: %v", err)
	}

	// Without a store the interrupt is still a clean exit.
	if err := run(cancelled, 2, 0, 2, cli.StoreFlags{}, paths); err != nil {
		t.Fatalf("interrupted in-memory run: %v", err)
	}
}
