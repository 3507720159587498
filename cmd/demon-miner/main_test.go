package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	demon "github.com/demon-mining/demon"
	"github.com/demon-mining/demon/internal/cli"
)

func writeBlocks(t *testing.T) []string {
	t.Helper()
	dir := t.TempDir()
	blocks := []string{
		"1 2 3\n1 2\n4 5\n1 2 3\n",
		"1 2\n1 2 3\n6\n1 2\n",
		"7 8\n7 8\n7 8\n9\n",
	}
	var paths []string
	for i, content := range blocks {
		p := filepath.Join(dir, "block-"+string(rune('a'+i))+".txt")
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	return paths
}

func TestRunUnrestrictedWindow(t *testing.T) {
	paths := writeBlocks(t)
	for _, strategy := range []string{"ptscan", "ecut", "ecutplus"} {
		out := captureStdout(t, func() {
			if err := run(context.Background(), 0.2, strategy, 0, "", 0, 1, 2, 5, 0, cli.StoreFlags{}, paths); err != nil {
				t.Fatalf("strategy %s: %v", strategy, err)
			}
		})
		// Block 1 holds 4 transactions, so at κ = 0.2 every itemset that
		// occurs is frequent: the subsets of {1,2,3}, then {4}, {5}, {4,5}.
		if !regexp.MustCompile(`(?m)^block 1: selected=true .* candidates=\d+ \|L\|=10$`).MatchString(out) {
			t.Errorf("strategy %s: no progress line with |L|=10 for block 1 in:\n%s", strategy, out)
		}
	}
}

// captureStdout returns what fn printed to os.Stdout.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		data, _ := io.ReadAll(r)
		done <- data
	}()
	defer func() { os.Stdout = saved }()
	fn()
	w.Close()
	return string(<-done)
}

func TestRunMostRecentWindow(t *testing.T) {
	paths := writeBlocks(t)
	if err := run(context.Background(), 0.2, "ecut", 2, "", 0, 1, 2, 5, 0.5, cli.StoreFlags{}, paths); err != nil {
		t.Fatal(err)
	}
	// Window-relative BSS.
	if err := run(context.Background(), 0.2, "ptscan", 2, "10", 0, 1, 2, 5, 0, cli.StoreFlags{}, paths); err != nil {
		t.Fatal(err)
	}
}

func TestRunPeriodicBSS(t *testing.T) {
	paths := writeBlocks(t)
	if err := run(context.Background(), 0.2, "ptscan", 0, "", 2, 1, 2, 5, 0.8, cli.StoreFlags{}, paths); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	paths := writeBlocks(t)
	if err := run(context.Background(), 0.2, "bogus", 0, "", 0, 1, 2, 5, 0, cli.StoreFlags{}, paths); err == nil {
		t.Error("accepted unknown strategy")
	}
	if err := run(context.Background(), 0.2, "", 0, "", 0, 1, 2, 5, 0, cli.StoreFlags{}, paths); err == nil {
		t.Error(`accepted -strategy ""`)
	}
	// The hash-tree scan is gone; its name fails like any unknown one, with
	// the remaining names in the message.
	err := run(context.Background(), 0.2, "hashtree", 0, "", 0, 1, 2, 5, 0, cli.StoreFlags{}, paths)
	if err == nil || !strings.Contains(err.Error(), "ptscan, ecut or ecutplus") {
		t.Errorf("-strategy hashtree: %v, want an error listing the strategies", err)
	}
	if err := run(context.Background(), 0.2, "ptscan", 0, "101", 0, 1, 2, 5, 0, cli.StoreFlags{}, paths); err == nil {
		t.Error("accepted -bss without -window")
	}
	if err := run(context.Background(), 0.2, "ptscan", 3, "10", 0, 1, 2, 5, 0, cli.StoreFlags{}, paths); err == nil {
		t.Error("accepted mismatched -bss length")
	}
	if err := run(context.Background(), 0.2, "ptscan", 0, "", 0, 1, 2, 5, 0, cli.StoreFlags{}, []string{"/nonexistent/file"}); err == nil {
		t.Error("accepted missing block file")
	}
	if err := run(context.Background(), 2.0, "ptscan", 0, "", 0, 1, 2, 5, 0, cli.StoreFlags{}, paths); err == nil {
		t.Error("accepted κ = 2")
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
	m, err := demon.RestoreItemsetMiner(demon.ItemsetMinerConfig{MinSupport: 0.2, Strategy: demon.ECUT, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	return m.T()
}

// TestRunDurableStoreResume: a second run over the same store continues
// from its checkpoint, without a flag asking for it.
func TestRunDurableStoreResume(t *testing.T) {
	paths := writeBlocks(t)
	dir := t.TempDir()
	dur := cli.StoreFlags{Dir: dir, CheckpointEvery: 1}

	// First run ingests two files and checkpoints.
	if err := run(context.Background(), 0.2, "ecut", 0, "", 0, 1, 2, 5, 0, dur, paths[:2]); err != nil {
		t.Fatal(err)
	}
	// The second ingests only the third; passing all paths exercises the skip.
	out := captureStdout(t, func() {
		if err := run(context.Background(), 0.2, "ecut", 0, "", 0, 1, 2, 5, 0, dur, paths); err != nil {
			t.Fatal(err)
		}
	})
	if !strings.Contains(out, "resumed at block 2: skipping 2 already-ingested file(s)") {
		t.Errorf("second run did not resume at block 2:\n%s", out)
	}
	if got := checkpointT(t, dir); got != 3 {
		t.Errorf("after the second run the checkpoint covers %d blocks, want 3", got)
	}
	// Scrub-only invocation over the surviving store.
	if err := run(context.Background(), 0.2, "ecut", 0, "", 0, 1, 2, 5, 0, cli.StoreFlags{Dir: dir, Scrub: true}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunKVFileBackendResume(t *testing.T) {
	paths := writeBlocks(t)
	dir := t.TempDir()
	dur := cli.StoreFlags{Dir: "kvfile:" + dir + "/store.kv", CheckpointEvery: 1}

	// Checkpoint two blocks into the single-file backend, then continue with
	// the third from it; the kvfile must appear where the URL places it.
	if err := run(context.Background(), 0.2, "ecut", 0, "", 0, 1, 2, 5, 0, dur, paths[:2]); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "store.kv")); err != nil {
		t.Fatalf("kvfile backend left no store.kv: %v", err)
	}
	// The second run never reads the files the checkpoint covers.
	for _, p := range paths[:2] {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := run(context.Background(), 0.2, "ecut", 0, "", 0, 1, 2, 5, 0, dur, paths); err != nil {
		t.Fatal(err)
	}
	if got := checkpointT(t, dur.Dir); got != 3 {
		t.Errorf("after the second run the checkpoint covers %d blocks, want 3", got)
	}
	// Scrub works through the kvfile stack too.
	if err := run(context.Background(), 0.2, "ecut", 0, "", 0, 1, 2, 5, 0, cli.StoreFlags{Dir: "kvfile:" + dir + "/store.kv", Scrub: true}, nil); err != nil {
		t.Fatal(err)
	}
	// The same store behind a read cache: every file is covered already.
	if err := run(context.Background(), 0.2, "ecut", 0, "", 0, 1, 2, 5, 0,
		cli.StoreFlags{Dir: "kvfile:" + dir + "/store.kv?cache=64kb"}, paths); err != nil {
		t.Fatal(err)
	}
	if got := checkpointT(t, dur.Dir); got != 3 {
		t.Errorf("after the cached run the checkpoint covers %d blocks, want 3", got)
	}
}

func TestRunDurabilityFlagErrors(t *testing.T) {
	paths := writeBlocks(t)
	if err := run(context.Background(), 0.2, "ptscan", 0, "", 0, 1, 2, 5, 0, cli.StoreFlags{CheckpointEvery: 2}, paths); err == nil {
		t.Error("accepted -checkpoint-every without -store")
	}
	if err := run(context.Background(), 0.2, "ptscan", 0, "", 0, 1, 2, 5, 0, cli.StoreFlags{Scrub: true}, paths); err == nil {
		t.Error("accepted -scrub without -store")
	}
	if err := run(context.Background(), 0.2, "ptscan", 0, "", 0, 1, 2, 5, 0, cli.StoreFlags{Dir: "bogus:" + t.TempDir()}, paths); err == nil {
		t.Error("accepted an unknown -store scheme")
	}
}

func TestRunInterruptCheckpointsAndResumes(t *testing.T) {
	paths := writeBlocks(t)
	dir := t.TempDir()
	dur := cli.StoreFlags{Dir: dir}

	// A cancelled context (the SIGTERM path) stops intake before the first
	// block but still checkpoints cleanly.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := run(cancelled, 0.2, "ecut", 0, "", 0, 1, 2, 5, 0, dur, paths); err != nil {
		t.Fatalf("interrupted run: %v", err)
	}

	// A second run over the interrupted store ingests everything the signal
	// prevented.
	if err := run(context.Background(), 0.2, "ecut", 0, "", 0, 1, 2, 5, 0, dur, paths); err != nil {
		t.Fatalf("run after interrupt: %v", err)
	}
	if got := checkpointT(t, dir); got != 3 {
		t.Errorf("after the interrupt and a second run the checkpoint covers %d blocks, want 3", got)
	}

	// Without a store the interrupt is still a clean exit.
	if err := run(cancelled, 0.2, "ecut", 0, "", 0, 1, 2, 5, 0, cli.StoreFlags{}, paths); err != nil {
		t.Fatalf("interrupted in-memory run: %v", err)
	}
}

// TestUsageErrors: what the caller got wrong exits 2 before anything runs —
// no block files, and -trace-sample, which only demon-serve takes (nothing
// in a batch miner starts a trace for the sampler to decide on).
func TestUsageErrors(t *testing.T) {
	paths := writeBlocks(t)
	for _, args := range [][]string{
		{"-minsup", "0.2"},
		{"-scrub"},
		append([]string{"-trace-sample", "0.5"}, paths...),
	} {
		var stderr bytes.Buffer
		if code := cli.Run(context.Background(), "demon-miner", args, &stderr, setup); code != 2 {
			t.Errorf("args %v: exit %d, want 2 (stderr %q)", args, code, stderr.String())
		}
	}
	captureStdout(t, func() {
		if code := cli.Run(context.Background(), "demon-miner", append([]string{"-minsup", "0.2"}, paths...), io.Discard, setup); code != 0 {
			t.Errorf("a plain run exits %d", code)
		}
	})
}
