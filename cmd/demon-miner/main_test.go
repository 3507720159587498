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

func TestRunDurableStoreResume(t *testing.T) {
	paths := writeBlocks(t)
	dir := t.TempDir()
	dur := cli.StoreFlags{Dir: dir, CheckpointEvery: 1}

	// First run ingests two files and checkpoints.
	if err := run(context.Background(), 0.2, "ecut", 0, "", 0, 1, 2, 5, 0, dur, paths[:2]); err != nil {
		t.Fatal(err)
	}
	// Resume ingests only the third; passing all paths exercises the skip.
	dur.Resume = true
	if err := run(context.Background(), 0.2, "ecut", 0, "", 0, 1, 2, 5, 0, dur, paths); err != nil {
		t.Fatal(err)
	}
	// Scrub-only invocation over the surviving store.
	if err := run(context.Background(), 0.2, "ecut", 0, "", 0, 1, 2, 5, 0, cli.StoreFlags{Dir: dir, Scrub: true}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunKVFileBackendResume(t *testing.T) {
	paths := writeBlocks(t)
	dir := t.TempDir()
	dur := cli.StoreFlags{Dir: dir, Backend: "kvfile", CheckpointEvery: 1}

	// Checkpoint two blocks into the single-file backend, then resume the
	// third from it; the kvfile must appear where DirStoreURL places it.
	if err := run(context.Background(), 0.2, "ecut", 0, "", 0, 1, 2, 5, 0, dur, paths[:2]); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "store.kv")); err != nil {
		t.Fatalf("kvfile backend left no store.kv: %v", err)
	}
	dur.Resume = true
	if err := run(context.Background(), 0.2, "ecut", 0, "", 0, 1, 2, 5, 0, dur, paths); err != nil {
		t.Fatal(err)
	}
	// Scrub works through the kvfile stack too.
	if err := run(context.Background(), 0.2, "ecut", 0, "", 0, 1, 2, 5, 0, cli.StoreFlags{Dir: dir, Backend: "kvfile", Scrub: true}, nil); err != nil {
		t.Fatal(err)
	}
	// A full store URL bypasses -store-backend entirely.
	if err := run(context.Background(), 0.2, "ecut", 0, "", 0, 1, 2, 5, 0,
		cli.StoreFlags{Dir: "kvfile:" + dir + "/store.kv?cache=64kb", Resume: true}, paths); err != nil {
		t.Fatal(err)
	}
}

func TestRunDurabilityFlagErrors(t *testing.T) {
	paths := writeBlocks(t)
	if err := run(context.Background(), 0.2, "ptscan", 0, "", 0, 1, 2, 5, 0, cli.StoreFlags{Resume: true}, paths); err == nil {
		t.Error("accepted -resume without -store")
	}
	if err := run(context.Background(), 0.2, "ptscan", 0, "", 0, 1, 2, 5, 0, cli.StoreFlags{CheckpointEvery: 2}, paths); err == nil {
		t.Error("accepted -checkpoint-every without -store")
	}
	if err := run(context.Background(), 0.2, "ptscan", 0, "", 0, 1, 2, 5, 0, cli.StoreFlags{Scrub: true}, paths); err == nil {
		t.Error("accepted -scrub without -store")
	}
	if err := run(context.Background(), 0.2, "ptscan", 0, "", 0, 1, 2, 5, 0, cli.StoreFlags{Backend: "kvfile"}, paths); err == nil {
		t.Error("accepted -store-backend without -store")
	}
	if err := run(context.Background(), 0.2, "ptscan", 0, "", 0, 1, 2, 5, 0, cli.StoreFlags{Dir: t.TempDir(), Backend: "bogus"}, paths); err == nil {
		t.Error("accepted an unknown -store-backend")
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

	// The interrupted store resumes and ingests everything the signal
	// prevented.
	dur.Resume = true
	if err := run(context.Background(), 0.2, "ecut", 0, "", 0, 1, 2, 5, 0, dur, paths); err != nil {
		t.Fatalf("resume after interrupt: %v", err)
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
