package demon

// Contract tests of the durable maintenance step (internal/durable) as seen
// through the miners: what one AddBlock hands the store, and which failures
// poison a miner.

import (
	"errors"
	"strings"
	"testing"

	"github.com/demon-mining/demon/internal/diskio"
)

// assertUnusable checks the sticky-failure rule: the miner refuses blocks
// and checkpoints until it is reopened.
func assertUnusable(t *testing.T, m *ItemsetMiner, rows [][]Item) {
	t.Helper()
	if _, err := m.AddBlock(rows); err == nil || !strings.Contains(err.Error(), "unusable") {
		t.Fatalf("failed miner accepted another block: %v", err)
	}
	if err := m.Checkpoint(); err == nil || !strings.Contains(err.Error(), "unusable") {
		t.Fatalf("failed miner accepted a checkpoint: %v", err)
	}
}

// One AddBlock is one transaction: the block's writes, the automatic
// checkpoint when one is due and whatever the TxnHook writes reach the store
// as a single atomic batch, and a hook error aborts all of it.
func TestDurableStepIsOneTransaction(t *testing.T) {
	const hookKey = "hook/last-block"
	metaKey := minerCheckpointPrefix + "/meta"
	base := diskio.NewMemStore()

	// A disarmed FaultStore as a recorder: per AddBlock, which operations
	// mutated the store and which keys the batch carried.
	var mutations []diskio.Op
	batch := map[string]bool{}
	rec := diskio.NewFaultStore(base)
	rec.FailOp = func(op diskio.Op, _ string) bool {
		if op == diskio.OpPut || op == diskio.OpDelete || op == diskio.OpApply {
			mutations = append(mutations, op)
		}
		return false
	}
	rec.FailKey = func(key string) bool { batch[key] = true; return false }

	var hookErr error
	cfg := ItemsetMinerConfig{MinSupport: 0.3, Strategy: ECUT, Store: rec, AutoCheckpointEvery: 2,
		TxnHook: func(s Store, id BlockID) error {
			if hookErr != nil {
				return hookErr
			}
			return s.Put(hookKey, []byte{byte(id)})
		}}
	m, err := NewItemsetMiner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	workload := sweepTxBlocks(6, 8)
	for i, rows := range workload[:4] {
		id := BlockID(i + 1)
		mutations, batch = nil, map[string]bool{}
		if _, err := m.AddBlock(rows); err != nil {
			t.Fatal(err)
		}
		if len(mutations) != 1 || mutations[0] != diskio.OpApply {
			t.Fatalf("block %d reached the store as %v, want exactly one atomic batch", id, mutations)
		}
		if !batch[hookKey] {
			t.Fatalf("block %d: the hook's write is not part of the block's batch", id)
		}
		due := id%2 == 0
		if batch[metaKey] != due {
			t.Fatalf("block %d: checkpoint in the block's batch = %v, want %v", id, batch[metaKey], due)
		}
		if want := id - id%2; m.CheckpointT() != want {
			t.Fatalf("after block %d CheckpointT = %d, want %d", id, m.CheckpointT(), want)
		}
		if v, err := base.Get(hookKey); err != nil || len(v) != 1 || BlockID(v[0]) != id {
			t.Fatalf("block %d: hook record = %v, %v", id, v, err)
		}
	}

	// A hook error aborts the block: nothing of it reaches the store, the
	// position stays, and the miner is sticky until resumed.
	before, writes := dumpStoreBytes(t, base), base.Stats().Writes
	hookErr = errors.New("hook refuses")
	if _, err := m.AddBlock(workload[4]); !errors.Is(err, hookErr) {
		t.Fatalf("AddBlock under a failing hook: %v", err)
	}
	if d := diskio.DiffDumps(dumpStoreBytes(t, base), before); d != "" {
		t.Fatalf("aborted block left traces in the store:\n%s", d)
	}
	if got := base.Stats().Writes; got != writes {
		t.Fatalf("aborted block wrote %d records", got-writes)
	}
	if m.T() != 4 {
		t.Fatalf("aborted block advanced the position to %d", m.T())
	}
	assertUnusable(t, m, workload[4])

	hookErr = nil
	r, err := ResumeItemsetMiner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.T() != 4 || r.CheckpointT() != 4 {
		t.Fatalf("resumed at T=%d CheckpointT=%d, want 4/4", r.T(), r.CheckpointT())
	}
	if _, err := r.AddBlock(workload[4]); err != nil {
		t.Fatalf("resumed miner: %v", err)
	}
}

// Without a Store a ClusterMiner step keeps the shell's order and failure
// rule: a block that fails halfway (a wrong-dimension point after valid
// ones) has been partly absorbed by the tree, so the position must not
// advance and the miner must refuse further blocks.
func TestStorelessClusterMinerFailedBlockIsSticky(t *testing.T) {
	m, err := NewClusterMiner(ClusterMinerConfig{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	good := sweepPointBlocks(2, 12)
	if _, err := m.AddBlock(good[0]); err != nil {
		t.Fatal(err)
	}
	mixed := append(append([]Point(nil), good[1][:4]...), Point{1, 2, 3})
	if _, err := m.AddBlock(mixed); err == nil {
		t.Fatal("a mixed-dimension block was accepted")
	}
	if m.T() != 1 {
		t.Fatalf("the failed block advanced the position to %d", m.T())
	}
	if _, err := m.AddBlock(good[1]); err == nil || !strings.Contains(err.Error(), "unusable") {
		t.Fatalf("miner with a half-absorbed block accepted another: %v", err)
	}
}

// The sticky-failure rule is the shell's, so it holds for the model that
// got its shell last: an in-memory window miner whose GEMM update failed
// refuses the next block where it stands. (A durable model's failed step
// is the simulation's, simulate_test.go.)
func TestStickyFailureOnTheConvertedShells(t *testing.T) {
	win, err := NewClusterWindowMiner(ClusterWindowMinerConfig{K: 2, WindowSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	pts := sweepPointBlocks(2, 12)
	if err := win.AddBlock(pts[0]); err != nil {
		t.Fatal(err)
	}
	if err := win.AddBlock([]Point{{1, 2, 3}}); err == nil {
		t.Fatal("a block of another dimension was absorbed")
	}
	if err := win.AddBlock(pts[1]); err == nil || !strings.Contains(err.Error(), "unusable") || win.T() != 1 {
		t.Fatalf("failed window miner accepted another block: %v at T = %d", err, win.T())
	}
}
