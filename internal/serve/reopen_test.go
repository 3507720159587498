package serve

import (
	"context"
	"testing"
	"time"

	demon "github.com/demon-mining/demon"
	"github.com/demon-mining/demon/internal/blockio"
	"github.com/demon-mining/demon/internal/diskio"
)

// TestReopenRecoversAFailedStore: a kvfile namespace whose store handle dies
// mid-stream — refusing every operation afterwards, as a kvfile handle
// refuses every mutation after a failed fsync until the file is reopened —
// recovers through the auto-reopen loop over a fresh handle, applies the rest
// of the stream, and ends byte-identical to a namespace that never failed.
func TestReopenRecoversAFailedStore(t *testing.T) {
	spec := Spec{Name: "tx", Kind: KindItemset, MinSupport: 0.2, Strategy: "ecut", Store: "kvfile", CheckpointEvery: 2}
	const blocks, failAt = 8, 4
	block := func(i int) blockio.Block { return blockio.TxBlock(txRows(40, i)) }
	ctx := context.Background()

	// run feeds blocks from the namespace's position up to last, one flush
	// per block; it reports the first flush error.
	run := func(n *Namespace, last int) error {
		for i := int(n.T()) + 1; i <= last; i++ {
			if err := n.EnqueueCtx(ctx, block(i)); err != nil {
				return err
			}
			if err := n.Flush(ctx, false); err != nil {
				return err
			}
		}
		return nil
	}
	start := func(root string) (*Server, *Namespace) {
		t.Helper()
		s, err := New(Config{Root: root, ReopenBackoff: 5 * time.Millisecond})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		n, err := s.Create(spec)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		return s, n
	}

	ref, refNS := start(t.TempDir())
	if err := run(refNS, blocks); err != nil {
		t.Fatalf("fault-free run: %v", err)
	}
	if err := ref.Drain(ctx); err != nil {
		t.Fatalf("drain fault-free server: %v", err)
	}
	want := storeDigest(t, refNS.Store())

	// The namespace's first handle goes through a FaultStore; every later
	// open gets a plain one.
	var first *diskio.FaultStore
	openStore = func(url string) (demon.Store, error) {
		s, err := demon.OpenStore(url)
		if err != nil || first != nil {
			return s, err
		}
		first = diskio.NewFaultStore(s)
		return first, nil
	}
	t.Cleanup(func() { openStore = demon.OpenStore })

	s, n := start(t.TempDir())
	if err := run(n, failAt-1); err != nil {
		t.Fatalf("blocks before the fault: %v", err)
	}
	first.CrashAfter(0)
	// The flush reports the failure unless the reopen has already run.
	_ = run(n, failAt)
	if !first.Dead() {
		t.Fatalf("block %d did not reach the store", failAt)
	}

	deadline := time.Now().Add(10 * time.Second)
	for n.reopens.Load() == 0 || n.Err() != nil {
		if time.Now().After(deadline) {
			t.Fatalf("namespace did not recover: Err = %v, reopens = %d", n.Err(), n.reopens.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := n.reopens.Load(); got != 1 {
		t.Fatalf("reopens = %d, want 1", got)
	}
	if n.Store() == demon.Store(first) {
		t.Fatal("the reopened namespace still exposes the failed handle")
	}
	if err := run(n, blocks); err != nil {
		t.Fatalf("blocks after the reopen: %v", err)
	}
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if n.T() != blocks {
		t.Fatalf("namespace ended at block %d, want %d", n.T(), blocks)
	}
	if got := storeDigest(t, n.Store()); got != want {
		t.Fatalf("store digest after the reopen %s, want the fault-free %s", got, want)
	}
}
