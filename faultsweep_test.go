package demon

// The fault-sweep harness — the repository's strongest durability evidence.
// For every operation index k of a fault-free golden run, a fresh run is
// crashed at exactly op k (with torn-write injection, so the dying Put leaves
// a detectable half-record), restarted over the surviving bytes, resumed from
// its last checkpoint, and driven to completion. The recovered store must be
// byte-identical to the golden store: no lost blocks, no duplicated counts,
// no staging debris, no quarantined keys, no silently ingested torn values.

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/demon-mining/demon/internal/diskio"
	"github.com/demon-mining/demon/internal/diskio/kvfile"
)

// sweepTxBlocks builds a deterministic transactional workload: nBlocks blocks
// of nTxs transactions, three distinct items each, with enough repetition
// across blocks that minsup 0.3 yields a non-trivial lattice.
func sweepTxBlocks(nBlocks, nTxs int) [][][]Item {
	out := make([][][]Item, nBlocks)
	for b := range out {
		txs := make([][]Item, nTxs)
		for i := range txs {
			base := Item((b + i) % 4)
			txs[i] = []Item{base, base + 10, Item(20 + i%3)}
		}
		out[b] = txs
	}
	return out
}

// sweepPointBlocks builds a deterministic clustering workload: two well
// separated centers visited alternately.
func sweepPointBlocks(nBlocks, perBlock int) [][]Point {
	out := make([][]Point, nBlocks)
	for b := range out {
		pts := make([]Point, perBlock)
		for i := range pts {
			c := float64(((b + i) % 2) * 8)
			pts[i] = Point{c + float64(i%4)*0.25, c - float64(i%3)*0.5}
		}
		out[b] = pts
	}
	return out
}

// dumpStoreBytes snapshots every key/value of a store.
func dumpStoreBytes(t *testing.T, s Store) map[string]string {
	t.Helper()
	dump, err := diskio.Dump(s)
	if err != nil {
		t.Fatal(err)
	}
	return dump
}

// sweepBackend parameterizes the sweep over a storage backend. newBase
// returns a fresh raw store plus a reopen func that simulates the crash
// restart over the surviving bytes (for kvfile: Close + Open, exercising the
// index rebuild; for MemStore the same object survives). wrap builds the
// production stack the workload actually runs through.
type sweepBackend struct {
	name    string
	newBase func(t *testing.T) (Store, func(t *testing.T) Store)
	wrap    func(Store) Store
}

// journaled hides every optional capability of the store it embeds — the
// atomic batch in particular — so a miner over it commits through the redo
// journal, one store operation per key, each of them a crash index.
type journaled struct{ Store }

// sweepBackends is the matrix every miner sweep can run over. The two mem
// rows are the dense default, one per commit sink: mem takes a transaction
// as a single Apply through the FaultStore, mem-journal as the journal
// protocol with torn writes. The file-layout backends prove the same
// crash-at-every-op contract over their own on-disk formats — file through
// the journal, the kvfile rows through Apply.
func sweepBackends() []sweepBackend {
	checksum := func(s Store) Store { return diskio.NewChecksumStore(s) }
	return []sweepBackend{
		{
			name: "mem",
			newBase: func(t *testing.T) (Store, func(t *testing.T) Store) {
				base := diskio.NewMemStore()
				return base, func(*testing.T) Store { return base }
			},
			wrap: checksum,
		},
		{
			name: "mem-journal",
			newBase: func(t *testing.T) (Store, func(t *testing.T) Store) {
				base := journaled{diskio.NewMemStore()}
				return base, func(*testing.T) Store { return base }
			},
			wrap: checksum,
		},
		{
			name:    "file",
			newBase: fileSweepBase,
			wrap:    checksum,
		},
		{
			name:    "kvfile",
			newBase: kvfileSweepBase,
			wrap:    checksum,
		},
		{
			name:    "kvfile+cache",
			newBase: kvfileSweepBase,
			wrap: func(s Store) Store {
				return diskio.NewCacheStore(diskio.NewChecksumStore(s), 64<<10)
			},
		},
	}
}

func fileSweepBase(t *testing.T) (Store, func(t *testing.T) Store) {
	dir := t.TempDir()
	open := func(t *testing.T) Store {
		fs, err := diskio.NewFileStore(dir)
		if err != nil {
			t.Fatalf("NewFileStore: %v", err)
		}
		return fs
	}
	return open(t), open
}

func kvfileSweepBase(t *testing.T) (Store, func(t *testing.T) Store) {
	path := t.TempDir() + "/store.kv"
	open := func(t *testing.T) *kvfile.Store {
		s, err := kvfile.Open(path, kvfile.Options{})
		if err != nil {
			t.Fatalf("kvfile.Open: %v", err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	s := open(t)
	reopen := func(t *testing.T) Store {
		if err := s.Close(); err != nil {
			t.Fatalf("kvfile.Close before reopen: %v", err)
		}
		s = open(t)
		return s
	}
	return s, reopen
}

// runFaultSweep drives the crash-at-every-op sweep on the in-memory backend,
// once per commit sink (the dense default — see runFaultSweepBackend for the
// disk formats), and checks that the two sinks leave the same bytes behind.
// fresh feeds the whole workload (plus a final checkpoint) into the given
// store; resume reopens a miner over the surviving store, re-feeds what is
// missing, and checkpoints. Both receive an already checksum-framed store.
func runFaultSweep(t *testing.T, fresh, resume func(Store) error) {
	t.Helper()
	var goldens []map[string]string
	for _, be := range sweepBackends()[:2] {
		t.Run(be.name, func(t *testing.T) {
			goldens = append(goldens, runFaultSweepBackend(t, be, 0, fresh, resume))
		})
	}
	if len(goldens) == 2 {
		if d := diskio.DiffDumps(goldens[1], goldens[0]); d != "" {
			t.Fatalf("the journal sink's store diverges from the Apply sink's:\n%s", d)
		}
	}
}

// runFaultSweepBackend drives the sweep over one backend and returns the
// fault-free run's store. maxIndices caps how many crash indices are visited
// (0 = dense, subject to -short); disk backends pass a cap because every op
// costs real fsyncs.
func runFaultSweepBackend(t *testing.T, be sweepBackend, maxIndices int, fresh, resume func(Store) error) map[string]string {
	t.Helper()

	// Golden run: no faults. The dump of the base (raw, framed) bytes is the
	// reference every recovered run must reproduce exactly.
	goldenBase, _ := be.newBase(t)
	if err := fresh(be.wrap(goldenBase)); err != nil {
		t.Fatalf("golden run: %v", err)
	}
	golden := dumpStoreBytes(t, goldenBase)

	// Counting run: same workload through a disarmed FaultStore to learn the
	// operation count — the coordinate system of the sweep.
	countBase, _ := be.newBase(t)
	countFS := diskio.NewFaultStore(countBase)
	if err := fresh(be.wrap(countFS)); err != nil {
		t.Fatalf("counting run: %v", err)
	}
	total := int(countFS.Ops())
	if total == 0 {
		t.Fatal("workload performed no store operations")
	}

	stride := 1
	if testing.Short() {
		stride = total/40 + 1
	}
	if maxIndices > 0 && total/stride > maxIndices {
		stride = total/maxIndices + 1
	}
	t.Logf("sweeping %d operation indices (stride %d)", total, stride)

	for k := 0; k < total; k += stride {
		base, reopen := be.newBase(t)
		fs := diskio.NewFaultStore(base)
		fs.TornWrite = true
		fs.CrashAfter(k)
		if err := fresh(be.wrap(fs)); err == nil {
			t.Fatalf("k=%d: workload succeeded despite crash injection", k)
		}
		if !fs.Dead() {
			t.Fatalf("k=%d: workload failed before the crash fired", k)
		}

		// Restart over the surviving bytes, fault-free.
		survivor := reopen(t)
		clean := be.wrap(survivor)
		if err := resume(clean); err != nil {
			t.Fatalf("k=%d: recovery run: %v", k, err)
		}
		got := dumpStoreBytes(t, survivor)
		if d := diskio.DiffDumps(got, golden); d != "" {
			t.Fatalf("k=%d: recovered store diverges from golden run:\n%s", k, d)
		}
		// A torn write must never survive as live data: a full scrub after
		// recovery finds nothing to quarantine.
		rep, err := diskio.ScrubChain(clean, "")
		if err != nil {
			t.Fatalf("k=%d: scrub: %v", k, err)
		}
		if len(rep.Quarantined) != 0 {
			t.Fatalf("k=%d: scrub quarantined %v after recovery", k, rep.Quarantined)
		}
	}
	return golden
}

// sweepMiner is what a sweep needs of a miner besides feeding it a block,
// whatever it mines.
type sweepMiner interface {
	T() BlockID
	Checkpoint() error
}

// sweepRuns builds the two runs of a sweep from a miner's constructors and
// its AddBlock: fresh creates a miner and feeds it the whole workload (plus a
// final checkpoint); resumed reopens one over the surviving store, re-feeds
// what its restored position says is missing, and checkpoints.
func sweepRuns[M sweepMiner, B any](workload []B, create, resume func(Store) (M, error),
	add func(M, B) error) (fresh, resumed func(Store) error) {

	run := func(open func(Store) (M, error)) func(Store) error {
		return func(s Store) error {
			m, err := open(s)
			if err != nil {
				return err
			}
			for _, blk := range workload[int(m.T()):] {
				if err := add(m, blk); err != nil {
					return err
				}
			}
			return m.Checkpoint()
		}
	}
	return run(create), run(resume)
}

// itemsetSweepRuns is sweepRuns for an ItemsetMiner configuration.
func itemsetSweepRuns(workload [][][]Item, cfg func(Store) ItemsetMinerConfig) (fresh, resumed func(Store) error) {
	return sweepRuns(workload,
		func(s Store) (*ItemsetMiner, error) { return NewItemsetMiner(cfg(s)) },
		func(s Store) (*ItemsetMiner, error) { return ResumeItemsetMiner(cfg(s)) },
		func(m *ItemsetMiner, rows [][]Item) error { _, err := m.AddBlock(rows); return err })
}

func TestFaultSweepItemsetMinerECUT(t *testing.T) {
	fresh, resumed := itemsetSweepRuns(sweepTxBlocks(6, 8), func(s Store) ItemsetMinerConfig {
		return ItemsetMinerConfig{MinSupport: 0.3, Strategy: ECUT, Store: s, AutoCheckpointEvery: 2}
	})
	runFaultSweep(t, fresh, resumed)
}

func TestFaultSweepItemsetMinerECUTPlus(t *testing.T) {
	if testing.Short() {
		t.Skip("covered densely by the ECUT sweep; run without -short for the ECUT+ sweep")
	}
	fresh, resumed := itemsetSweepRuns(sweepTxBlocks(5, 8), func(s Store) ItemsetMinerConfig {
		return ItemsetMinerConfig{MinSupport: 0.3, Strategy: ECUTPlus, ECUTPlusBudget: 64,
			Store: s, AutoCheckpointEvery: 1}
	})
	runFaultSweep(t, fresh, resumed)
}

func TestFaultSweepItemsetWindowMiner(t *testing.T) {
	cfg := func(s Store) ItemsetWindowMinerConfig {
		return ItemsetWindowMinerConfig{MinSupport: 0.3, Strategy: PTScan, WindowSize: 3,
			Store: s, AutoCheckpointEvery: 1}
	}
	fresh, resumed := sweepRuns(sweepTxBlocks(5, 6),
		func(s Store) (*ItemsetWindowMiner, error) { return NewItemsetWindowMiner(cfg(s)) },
		func(s Store) (*ItemsetWindowMiner, error) { return ResumeItemsetWindowMiner(cfg(s)) },
		func(m *ItemsetWindowMiner, rows [][]Item) error { _, err := m.AddBlock(rows); return err })
	runFaultSweep(t, fresh, resumed)
}

func TestFaultSweepClusterMiner(t *testing.T) {
	cfg := func(s Store) ClusterMinerConfig {
		return ClusterMinerConfig{K: 2, Store: s, AutoCheckpointEvery: 1,
			Tree: TreeConfig{Branching: 3, LeafEntries: 4, MaxLeafEntriesTotal: 32}}
	}
	fresh, resumed := sweepRuns(sweepPointBlocks(6, 12),
		func(s Store) (*ClusterMiner, error) { return NewClusterMiner(cfg(s)) },
		func(s Store) (*ClusterMiner, error) { return ResumeClusterMiner(cfg(s)) },
		func(m *ClusterMiner, pts []Point) error { _, err := m.AddBlock(pts); return err })
	runFaultSweep(t, fresh, resumed)
}

// runFaultSweepDisk proves the crash-at-every-op contract holds per storage
// backend: the workload swept over the one-file-per-key store, the
// single-file KV engine (whose restart path rebuilds the index from the
// log), and the KV engine under a read cache. Disk backends pay real fsyncs
// per op, so their sweeps visit a capped set of crash indices (still
// spanning the whole op range); the dense sweep runs on mem, in runFaultSweep.
func runFaultSweepDisk(t *testing.T, fresh, resumed func(Store) error) {
	t.Helper()
	maxIndices := 40
	if testing.Short() {
		maxIndices = 8
	}
	for _, be := range sweepBackends() {
		if strings.HasPrefix(be.name, "mem") {
			continue
		}
		t.Run(be.name, func(t *testing.T) {
			runFaultSweepBackend(t, be, maxIndices, fresh, resumed)
		})
	}
}

func TestFaultSweepBackends(t *testing.T) {
	fresh, resumed := itemsetSweepRuns(sweepTxBlocks(4, 6), func(s Store) ItemsetMinerConfig {
		return ItemsetMinerConfig{MinSupport: 0.3, Strategy: ECUT, Store: s, AutoCheckpointEvery: 2}
	})
	runFaultSweepDisk(t, fresh, resumed)
}

// TestFaultSweepMonitor sweeps the durable monitor on every backend: a crash
// at any operation of any block transaction must leave a store that
// ResumeMonitor replays into exactly the fault-free history. A TxnHook
// writes the block's position inside every transaction, as the serving
// layer's sequence record does, and each restart checks that the record
// agrees with the replayed position — the monitor's restore point is always
// its full history.
func TestFaultSweepMonitor(t *testing.T) {
	const posKey = "sweep/position"
	cfg := func(s Store) MonitorConfig {
		return MonitorConfig{MinSupport: 0.3, Alpha: 0.05, Workers: 1, Store: s,
			TxnHook: func(st Store, id BlockID) error { return st.Put(posKey, []byte{byte(id)}) }}
	}
	fresh, resumed := sweepRuns(sweepTxBlocks(6, 8),
		func(s Store) (*Monitor, error) { return NewMonitor(cfg(s)) },
		func(s Store) (*Monitor, error) {
			m, err := ResumeMonitor(cfg(s))
			if err != nil {
				return nil, err
			}
			pos, err := s.Get(posKey)
			if errors.Is(err, diskio.ErrNotFound) {
				pos, err = []byte{0}, nil
			}
			if err != nil {
				return nil, err
			}
			if BlockID(pos[0]) != m.T() {
				return nil, fmt.Errorf("hook record at block %d, monitor replayed to %d", pos[0], m.T())
			}
			return m, nil
		},
		func(m *Monitor, rows [][]Item) error { _, err := m.AddBlock(rows); return err })
	runFaultSweep(t, fresh, resumed)
	runFaultSweepDisk(t, fresh, resumed)
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

// A sticky miner stays unusable after a failed block until resumed.
func TestFaultSweepMinerUnusableAfterFailure(t *testing.T) {
	base := diskio.NewMemStore()
	fs := diskio.NewFaultStore(base)
	cfg := ItemsetMinerConfig{MinSupport: 0.3, Strategy: ECUT,
		Store: diskio.NewChecksumStore(fs), AutoCheckpointEvery: 1}
	m, err := NewItemsetMiner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	workload := sweepTxBlocks(2, 6)
	if _, err := m.AddBlock(workload[0]); err != nil {
		t.Fatal(err)
	}
	fs.FailAfter(0)
	if _, err := m.AddBlock(workload[1]); err == nil {
		t.Fatal("AddBlock succeeded under an armed fault")
	}
	if _, err := m.AddBlock(workload[1]); err == nil || !strings.Contains(err.Error(), "unusable") {
		t.Fatalf("failed miner accepted another block: %v", err)
	}
	if err := m.Checkpoint(); err == nil || !strings.Contains(err.Error(), "unusable") {
		t.Fatalf("failed miner accepted a checkpoint: %v", err)
	}

	// Resume brings a fresh miner back over the same store, able to finish.
	r, err := ResumeItemsetMiner(ItemsetMinerConfig{MinSupport: 0.3, Strategy: ECUT,
		Store: diskio.NewChecksumStore(base), AutoCheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, rows := range workload[int(r.T()):] {
		if _, err := r.AddBlock(rows); err != nil {
			t.Fatal(err)
		}
	}
	if r.T() != 2 {
		t.Fatalf("resumed miner at T=%d, want 2", r.T())
	}
}
