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

// A model update that is not a block is exclusive and sticky like one: a
// lowering ChangeMinSupport that fails while counting the new candidates
// leaves the border half-rewritten, so the miner must refuse to go on (and
// to checkpoint that model). Argument errors raised before any mutation
// leave it usable.
func TestMutationFailureIsSticky(t *testing.T) {
	base := diskio.NewMemStore()
	fs := diskio.NewFaultStore(base)
	cfg := ItemsetMinerConfig{MinSupport: 0.5, Strategy: ECUT, Store: fs, AutoCheckpointEvery: 1}
	m, err := NewItemsetMiner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	workload := sweepTxBlocks(3, 8)
	for _, rows := range workload[:2] {
		if _, err := m.AddBlock(rows); err != nil {
			t.Fatal(err)
		}
	}
	checkpointed := m.Lattice()

	if _, err := m.ChangeMinSupport(1.5); err == nil {
		t.Fatal("ChangeMinSupport accepted a threshold outside (0, 1)")
	}
	empty, err := NewItemsetMiner(ItemsetMinerConfig{MinSupport: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := empty.DeleteOldestBlock(); err == nil {
		t.Fatal("DeleteOldestBlock succeeded on an empty model")
	}
	for _, ok := range []*ItemsetMiner{m, empty} {
		if err := ok.Checkpoint(); err != nil {
			t.Fatalf("an argument error poisoned the miner: %v", err)
		}
	}

	fs.FailOp = func(op diskio.Op, _ string) bool { return op == diskio.OpGet }
	if _, err := m.ChangeMinSupport(0.1); !errors.Is(err, diskio.ErrInjected) {
		t.Fatalf("lowering ChangeMinSupport under a failing Get: %v", err)
	}
	fs.FailOp = nil
	assertUnusable(t, m, workload[2])

	r, err := ResumeItemsetMiner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.T() != 2 {
		t.Fatalf("resumed at T=%d, want the checkpoint at 2", r.T())
	}
	assertLatticeEqual(t, r.Lattice(), checkpointed)
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

// The sticky-failure rule is the shell's, so it holds for the models that
// got their shell last: a durable monitor whose commit failed, and an
// in-memory window miner whose GEMM update failed, refuse the next block
// where they stand.
func TestStickyFailureOnTheConvertedShells(t *testing.T) {
	base := diskio.NewMemStore()
	fs := diskio.NewFaultStore(base)
	cfg := MonitorConfig{MinSupport: 0.3, Alpha: 0.05, Store: diskio.NewChecksumStore(fs)}
	mon, err := NewMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := sweepTxBlocks(2, 8)
	if _, err := mon.AddBlock(rows[0]); err != nil {
		t.Fatal(err)
	}
	fs.FailAfter(0)
	if _, err := mon.AddBlock(rows[1]); err == nil {
		t.Fatal("AddBlock succeeded under an armed fault")
	}
	if _, err := mon.AddBlock(rows[1]); err == nil || !strings.Contains(err.Error(), "unusable") {
		t.Fatalf("failed monitor accepted another block: %v", err)
	}
	if err := mon.Checkpoint(); err == nil || !strings.Contains(err.Error(), "unusable") {
		t.Fatalf("failed monitor accepted a checkpoint: %v", err)
	}
	cfg.Store = diskio.NewChecksumStore(base)
	if r, err := ResumeMonitor(cfg); err != nil || r.T() != 1 {
		t.Fatalf("resumed monitor: %v at T = %d, want block 1 alone", err, r.T())
	}

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
