package demon

import (
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/demon-mining/demon/internal/diskio"
)

func TestRestoreWithoutCheckpoint(t *testing.T) {
	if _, err := RestoreItemsetMiner(ItemsetMinerConfig{MinSupport: 0.1, Store: NewMemStore()}); err == nil {
		t.Error("restored from empty store")
	}
	if _, err := RestoreItemsetMiner(ItemsetMinerConfig{MinSupport: 0.1}); err == nil {
		t.Error("restored without a store")
	}
	if _, err := RestoreItemsetWindowMiner(ItemsetWindowMinerConfig{MinSupport: 0.1, WindowSize: 2, Store: NewMemStore()}); err == nil {
		t.Error("restored window miner from empty store")
	}
	if _, err := RestoreItemsetWindowMiner(ItemsetWindowMinerConfig{MinSupport: 0.1, WindowSize: 2}); err == nil {
		t.Error("restored window miner without a store")
	}
}

// Satellite: the meta record rejects trailing garbage and unknown versions
// instead of silently misreading a future or damaged layout.
func TestCheckpointMetaRejectsDamage(t *testing.T) {
	store := NewMemStore()
	m, err := NewItemsetMiner(ItemsetMinerConfig{MinSupport: 0.2, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddBlock([][]Item{{1, 2}, {1, 3}}); err != nil {
		t.Fatal(err)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	key := minerCheckpointPrefix + "/meta"
	good, err := store.Get(key)
	if err != nil {
		t.Fatal(err)
	}

	if err := store.Put(key, append(append([]byte(nil), good...), 0xFF)); err != nil {
		t.Fatal(err)
	}
	_, err = RestoreItemsetMiner(ItemsetMinerConfig{MinSupport: 0.2, Store: store})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing garbage: got %v, want ErrCorrupt", err)
	}
	if err != nil && !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing garbage error not descriptive: %v", err)
	}

	bad := append([]byte(nil), good...)
	bad[0] = 0x7E
	if err := store.Put(key, bad); err != nil {
		t.Fatal(err)
	}
	_, err = RestoreItemsetMiner(ItemsetMinerConfig{MinSupport: 0.2, Store: store})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unknown version: got %v, want ErrCorrupt", err)
	}
	if err != nil && !strings.Contains(err.Error(), "version") {
		t.Fatalf("version error not descriptive: %v", err)
	}

	if err := store.Put(key, good); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreItemsetMiner(ItemsetMinerConfig{MinSupport: 0.2, Store: store}); err != nil {
		t.Fatalf("restoring the undamaged meta: %v", err)
	}
}

// feedWindow feeds a window miner four small blocks and checkpoints it.
func feedWindow(t *testing.T, m *ItemsetWindowMiner) {
	t.Helper()
	for i := 0; i < 4; i++ {
		if _, err := m.AddBlock([][]Item{{1, 2, 3}, {2, 3}, {1, 3}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

// Satellite: restoring a window checkpoint under a mismatched window size or
// window-relative BSS must fail descriptively, not mis-restore slots.
func TestRestoreWindowMinerConfigMismatch(t *testing.T) {
	store := NewMemStore()
	m, err := NewItemsetWindowMiner(ItemsetWindowMinerConfig{MinSupport: 0.2, WindowSize: 3, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	feedWindow(t, m)
	_, err = RestoreItemsetWindowMiner(ItemsetWindowMinerConfig{MinSupport: 0.2, WindowSize: 4, Store: store})
	if err == nil || !strings.Contains(err.Error(), "window size") {
		t.Fatalf("window size mismatch: got %v", err)
	}

	rel, err := ParseWindowRelBSS("101")
	if err != nil {
		t.Fatal(err)
	}
	store = NewMemStore()
	if m, err = NewItemsetWindowMiner(ItemsetWindowMinerConfig{MinSupport: 0.2, WindowRelBSS: rel, Store: store}); err != nil {
		t.Fatal(err)
	}
	feedWindow(t, m)
	other, err := ParseWindowRelBSS("110")
	if err != nil {
		t.Fatal(err)
	}
	_, err = RestoreItemsetWindowMiner(ItemsetWindowMinerConfig{MinSupport: 0.2, WindowRelBSS: other, Store: store})
	if err == nil || !strings.Contains(err.Error(), "BSS") {
		t.Fatalf("BSS mismatch: got %v", err)
	}
	// Same window size but plain window-independent selection: still a
	// different model collection, still rejected.
	_, err = RestoreItemsetWindowMiner(ItemsetWindowMinerConfig{MinSupport: 0.2, WindowSize: 3, Store: store})
	if err == nil || !strings.Contains(err.Error(), "BSS") {
		t.Fatalf("BSS-vs-plain mismatch: got %v", err)
	}
}

// A window checkpoint with one model slot gone fails to resume naming the
// slot, not with a bare not-found.
func TestResumeWindowMinerMissingSlot(t *testing.T) {
	for k := 0; k < 3; k++ {
		store := NewMemStore()
		cfg := ItemsetWindowMinerConfig{MinSupport: 0.2, WindowSize: 3, Store: store}
		m, err := NewItemsetWindowMiner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		feedWindow(t, m)
		key := fmt.Sprintf("%s/model-%04d", windowCheckpointPrefix, k)
		if _, err := store.Size(key); err != nil {
			t.Fatalf("checkpoint has no %s: %v", key, err)
		}
		if err := store.Delete(key); err != nil {
			t.Fatal(err)
		}
		_, err = ResumeItemsetWindowMiner(cfg)
		want := fmt.Sprintf("checkpoint is missing model slot %d of 3", k)
		if err == nil || !strings.Contains(err.Error(), want) || errors.Is(err, diskio.ErrNotFound) {
			t.Fatalf("slot %d deleted: resume error %v, want %q", k, err, want)
		}
	}
}

func TestClusterMinerCheckpointRestore(t *testing.T) {
	cfg := ClusterMinerConfig{K: 2, Store: NewMemStore(), Tree: TreeConfig{Branching: 3, LeafEntries: 4, MaxLeafEntriesTotal: 32}}
	m, err := NewClusterMiner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, pts := range sweepPointBlocks(3, 20) {
		if _, err := m.AddBlock(pts); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// The restore itself is the simulation's (simulate_test.go); a different
	// K or tree parameterization must be rejected.
	bad := cfg
	bad.K = 3
	if _, err := RestoreClusterMiner(bad); err == nil || !strings.Contains(err.Error(), "configuration") {
		t.Fatalf("K mismatch: got %v", err)
	}
	bad = cfg
	bad.Tree.Branching = 4
	if _, err := RestoreClusterMiner(bad); err == nil || !strings.Contains(err.Error(), "configuration") {
		t.Fatalf("tree mismatch: got %v", err)
	}
}

// TestClusterConfigGolden pins the bytes of the cluster checkpoint's
// configuration record for K = 3 and the default tree: K, then six ints
// (branching, leaf entries, leaf budget and three slots that are always zero),
// then the initial threshold's bits. A checkpoint written by any earlier
// version restores only while these bytes hold.
func TestClusterConfigGolden(t *testing.T) {
	store := NewMemStore()
	m, err := NewClusterMiner(ClusterMinerConfig{K: 3, Store: store, Tree: DefaultTreeConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddBlock([]Point{{0, 0}, {1, 1}, {5, 5}, {9, 9}}); err != nil {
		t.Fatal(err)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	const want = "03060810800400000000"
	if got, err := store.Get(clusterCheckpointPrefix + "/config"); err != nil || hex.EncodeToString(got) != want {
		t.Fatalf("config record = %x, %v; want %s", got, err, want)
	}
}

// TestMonitorStoreGolden pins the durable monitor's store format: the key
// listing, the position record's bytes and the digest of everything, for a
// 3-block stream — captured from the served monitor (serve.monitorModel)
// before its durability moved into this package, so a store written by
// either is read by the other.
func TestMonitorStoreGolden(t *testing.T) {
	store := NewMemStore()
	cfg := MonitorConfig{MinSupport: 0.3, Alpha: 0.05, Store: store}
	m, err := NewMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, rows := range sweepTxBlocks(3, 8) {
		if _, err := m.AddBlock(rows); err != nil {
			t.Fatal(err)
		}
	}
	if m.T() != 3 || m.CheckpointT() != 3 {
		t.Errorf("T = %d, CheckpointT = %d; want 3, 3: every block carries the position record", m.T(), m.CheckpointT())
	}
	keys, err := store.Keys("")
	if err != nil {
		t.Fatal(err)
	}
	wantKeys := []string{"checkpoint/monitor/meta", "txblock/00000001", "txblock/00000002", "txblock/00000003"}
	if !reflect.DeepEqual(keys, wantKeys) {
		t.Errorf("keys = %q, want %q", keys, wantKeys)
	}
	if meta, err := store.Get(monitorCheckpointPrefix + "/meta"); err != nil || string(meta) != "\x03\x18" {
		t.Errorf("position record = %x, %v; want 0318 (t = 3, 24 transactions)", meta, err)
	}
	const wantDigest = "f86f8962eba899e25462e8e4fb21b77cfeaab8db2c4714f21019e0994173453d"
	if digest, err := diskio.Digest(store); err != nil || digest != wantDigest {
		t.Errorf("store digest = %s, %v; want %s", digest, err, wantDigest)
	}

	// An explicit checkpoint rewrites the same record, and a resumed monitor
	// replays the history into the same patterns.
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if digest, _ := diskio.Digest(store); digest != wantDigest {
		t.Errorf("Checkpoint changed the store: digest %s", digest)
	}
	r, err := ResumeMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.T() != 3 || !reflect.DeepEqual(r.Patterns(), m.Patterns()) || len(r.Patterns()) == 0 {
		t.Errorf("resumed at T = %d with patterns %v, want 3 and %v", r.T(), r.Patterns(), m.Patterns())
	}
	if _, err := r.AddBlock(sweepTxBlocks(4, 8)[3]); err != nil || r.T() != 4 {
		t.Errorf("block 4 after resume: T = %d, %v", r.T(), err)
	}
}

// FuzzDecodeCheckpointMeta: hostile bytes under a miner's position record
// decode to an error or to a value that survives its own encoding — never a
// panic.
func FuzzDecodeCheckpointMeta(f *testing.F) {
	f.Add([]byte{checkpointMetaVersion, 3, 24, 0, 0})
	f.Add([]byte{checkpointMetaVersion, 5, 40, 3, 3, '1', '0', '1'})
	f.Add([]byte{checkpointMetaVersion, 1, 1, 1, 200})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		meta, err := decodeCheckpointMeta(data)
		if err != nil {
			return
		}
		store := NewMemStore()
		if err := putCheckpointMeta(store, "fuzz", meta); err != nil {
			t.Fatal(err)
		}
		raw, _ := store.Get("fuzz/meta")
		if again, err := decodeCheckpointMeta(raw); err != nil || again != meta {
			t.Fatalf("%x decoded to %+v, which re-encodes to %x and decodes to %+v, %v", data, meta, raw, again, err)
		}
	})
}

// FuzzDecodeMonitorMeta is FuzzDecodeCheckpointMeta for the monitor's
// position record.
func FuzzDecodeMonitorMeta(f *testing.F) {
	f.Add([]byte{3, 24})
	f.Add([]byte{0x80, 0x01, 0xff, 0x7f})
	f.Add([]byte{3})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		pos, next, err := decodeMonitorMeta(data)
		if err != nil {
			return
		}
		store := NewMemStore()
		if err := (&Monitor{next: next}).saveCheckpoint(store, pos); err != nil {
			t.Fatal(err)
		}
		raw, _ := store.Get(monitorCheckpointPrefix + "/meta")
		if pos2, next2, err := decodeMonitorMeta(raw); err != nil || pos2 != pos || next2 != next {
			t.Fatalf("%x decoded to (%d, %d), which re-encodes to %x and decodes to (%d, %d), %v",
				data, pos, next, raw, pos2, next2, err)
		}
	})
}

// Resuming over a damaged checkpoint must fail loudly — a silent fresh start
// would quietly diverge from the fault-free history.
func TestFaultSweepResumeRejectsCorruptCheckpoint(t *testing.T) {
	base := diskio.NewMemStore()
	store := diskio.NewChecksumStore(base)
	cfg := ItemsetMinerConfig{MinSupport: 0.3, Strategy: ECUT, Store: store}
	m, err := NewItemsetMiner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, rows := range sweepTxBlocks(2, 6) {
		if _, err := m.AddBlock(rows); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Flip one bit of the framed meta record underneath the checksum layer.
	key := minerCheckpointPrefix + "/meta"
	raw, err := base.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	raw = append([]byte(nil), raw...)
	raw[len(raw)/2] ^= 0x40
	if err := base.Put(key, raw); err != nil {
		t.Fatal(err)
	}

	if _, err := ResumeItemsetMiner(cfg); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("resume over corrupt checkpoint: got %v, want ErrCorrupt", err)
	}
}
