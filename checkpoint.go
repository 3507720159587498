package demon

import (
	"fmt"
	"math"
	"strconv"

	"github.com/demon-mining/demon/internal/birch"
	"github.com/demon-mining/demon/internal/borders"
	"github.com/demon-mining/demon/internal/cf"
	"github.com/demon-mining/demon/internal/diskio"
	"github.com/demon-mining/demon/internal/durable"
	"github.com/demon-mining/demon/internal/itemset"
)

// Checkpointing persists miner state through the miner's Store, following
// the paper's Section 3.2.3 observation that models are negligibly small
// next to the data: a restarted process restores the model(s) and resumes
// block ingestion where it left off. Blocks and TID-lists already live in
// the Store, so a checkpoint adds only the model collection and the
// snapshot position. This file holds what is each miner's own — the payload
// it writes and how it restores from one; when and how a checkpoint is
// written (always inside a transaction, so model and position meta become
// visible together or not at all) is the shell's business, see
// internal/durable.

const (
	minerCheckpointPrefix   = "checkpoint/itemset-miner"
	windowCheckpointPrefix  = "checkpoint/itemset-window-miner"
	clusterCheckpointPrefix = "checkpoint/cluster-miner"
	monitorCheckpointPrefix = "checkpoint/monitor"

	// checkpointMetaVersion is the format version of the meta record. Bump
	// it when the layout changes; restore rejects versions it does not know
	// instead of misreading them.
	checkpointMetaVersion = 0x01
)

// resident is what every resident model shows of the shell it runs under.
type resident struct{ sh *durable.Shell }

// T returns the identifier of the latest ingested block.
func (r *resident) T() BlockID { return r.sh.T() }

// checkpointed is what the durable miners show of it besides.
type checkpointed struct{ resident }

// CheckpointT returns the position of the last checkpoint written or
// restored from (0 when none): blocks up to it survive a crash inside the
// model, later ones only as stored data until the next checkpoint.
func (c *checkpointed) CheckpointT() BlockID { return c.sh.CheckpointT() }

// Checkpoint persists the miner's model — for a window miner the whole
// collection, all w GEMM slots; for a cluster miner the resident CF-tree —
// and its position into its Store, atomically. It requires a configured
// Store.
func (c *checkpointed) Checkpoint() error { return c.sh.Checkpoint() }

// checkpointMeta is the position record of a checkpoint.
type checkpointMeta struct {
	t       BlockID
	totalTx int
	// slots is the window size the checkpoint was taken under; 0 for the
	// unrestricted-window miners.
	slots int
	// bss is the window-relative BSS bit string ("10110"-style) the
	// checkpoint was taken under; empty when none was configured.
	bss string
}

func putCheckpointMeta(store Store, prefix string, m checkpointMeta) error {
	buf := []byte{checkpointMetaVersion}
	buf = diskio.AppendUvarint(buf, uint64(m.t))
	buf = diskio.AppendUvarint(buf, uint64(m.totalTx))
	buf = diskio.AppendUvarint(buf, uint64(m.slots))
	buf = diskio.AppendUvarint(buf, uint64(len(m.bss)))
	buf = append(buf, m.bss...)
	return store.Put(prefix+"/meta", buf)
}

// readUvarints decodes the len(into) uvarints a position record starts with.
func readUvarints(data []byte, into []uint64) ([]byte, error) {
	for i := range into {
		var err error
		if into[i], data, err = diskio.ReadUvarint(data); err != nil {
			return nil, fmt.Errorf("demon: decoding field %d of the position record: %w", i+1, err)
		}
	}
	return data, nil
}

// decodeCheckpointMeta parses the position record Open read back.
func decodeCheckpointMeta(data []byte) (checkpointMeta, error) {
	var m checkpointMeta
	if len(data) == 0 {
		return m, fmt.Errorf("demon: %w: empty checkpoint meta", diskio.ErrCorrupt)
	}
	if data[0] != checkpointMetaVersion {
		return m, fmt.Errorf("demon: %w: checkpoint meta version %d, this build reads version %d",
			diskio.ErrCorrupt, data[0], checkpointMetaVersion)
	}
	var f [4]uint64 // t, totalTx, slots, len(bss)
	data, err := readUvarints(data[1:], f[:])
	if err != nil {
		return m, err
	}
	bssLen := f[3]
	if bssLen > uint64(len(data)) {
		return m, fmt.Errorf("demon: %w: truncated checkpoint BSS", diskio.ErrCorrupt)
	}
	m.t, m.totalTx, m.slots, m.bss = BlockID(f[0]), int(f[1]), int(f[2]), string(data[:bssLen])
	if rest := data[bssLen:]; len(rest) != 0 {
		return m, fmt.Errorf("demon: %w: %d trailing bytes after checkpoint meta",
			diskio.ErrCorrupt, len(rest))
	}
	return m, nil
}

// saveCheckpoint is the miner's checkpoint payload: the model and the meta.
func (m *ItemsetMiner) saveCheckpoint(store Store, t BlockID) error {
	if err := borders.NewModelStore(store, minerCheckpointPrefix).Save(0, m.model); err != nil {
		return err
	}
	return putCheckpointMeta(store, minerCheckpointPrefix, checkpointMeta{t: t, totalTx: m.totalTx})
}

// RestoreItemsetMiner rebuilds a miner from a checkpoint previously written
// to cfg.Store by Checkpoint. The configuration must match the one the
// checkpoint was taken under (same store contents; the threshold is restored
// from the model). Incomplete transactions left by a crash are rolled back
// or forward first.
func RestoreItemsetMiner(cfg ItemsetMinerConfig) (*ItemsetMiner, error) {
	return openItemsetMiner(cfg, true)
}

// ResumeItemsetMiner opens a miner over cfg.Store: when the store holds a
// checkpoint the miner restores from it, otherwise it starts fresh. A
// corrupt checkpoint is an error, never a silent fresh start — resuming past
// damaged state would quietly diverge from the fault-free history.
func ResumeItemsetMiner(cfg ItemsetMinerConfig) (*ItemsetMiner, error) {
	return openItemsetMiner(cfg, false)
}

func openItemsetMiner(cfg ItemsetMinerConfig, mustExist bool) (*ItemsetMiner, error) {
	return durable.Open(cfg.Store, minerCheckpointPrefix, mustExist,
		func() (*ItemsetMiner, error) { return NewItemsetMiner(cfg) },
		func(m *ItemsetMiner, raw []byte) error {
			meta, err := decodeCheckpointMeta(raw)
			if err != nil {
				return err
			}
			if m.model, err = borders.NewModelStore(cfg.Store, minerCheckpointPrefix).Load(0); err != nil {
				return err
			}
			m.cfg.MinSupport = m.model.MinSupport
			m.totalTx = meta.totalTx
			m.sh.Restored(meta.t)
			return nil
		})
}

func (m *ItemsetWindowMiner) saveCheckpoint(store Store, t BlockID) error {
	ms := borders.NewModelStore(store, windowCheckpointPrefix)
	for i, slot := range m.g.Slots() {
		if err := ms.Save(i, slot); err != nil {
			return err
		}
	}
	return putCheckpointMeta(store, windowCheckpointPrefix, checkpointMeta{
		t: t, totalTx: m.nextTx, slots: m.g.WindowSize(), bss: m.cfg.WindowRelBSS.String()})
}

// RestoreItemsetWindowMiner rebuilds a window miner from a checkpoint. The
// window configuration (size, BSS, strategy) must match the original; a
// mismatched window size or window-relative BSS is rejected with a
// descriptive error rather than mis-restoring the model collection.
func RestoreItemsetWindowMiner(cfg ItemsetWindowMinerConfig) (*ItemsetWindowMiner, error) {
	return openItemsetWindowMiner(cfg, true)
}

// ResumeItemsetWindowMiner opens a window miner over cfg.Store, restoring
// from a checkpoint when one exists and starting fresh otherwise. A corrupt
// checkpoint is an error, never a silent fresh start.
func ResumeItemsetWindowMiner(cfg ItemsetWindowMinerConfig) (*ItemsetWindowMiner, error) {
	return openItemsetWindowMiner(cfg, false)
}

func openItemsetWindowMiner(cfg ItemsetWindowMinerConfig, mustExist bool) (*ItemsetWindowMiner, error) {
	return durable.Open(cfg.Store, windowCheckpointPrefix, mustExist,
		func() (*ItemsetWindowMiner, error) { return NewItemsetWindowMiner(cfg) },
		func(m *ItemsetWindowMiner, raw []byte) error {
			meta, err := decodeCheckpointMeta(raw)
			if err != nil {
				return err
			}
			if w := m.g.WindowSize(); meta.slots != w {
				return fmt.Errorf("demon: checkpoint was taken with window size %d, configuration has %d",
					meta.slots, w)
			}
			if rel := cfg.WindowRelBSS.String(); meta.bss != rel {
				return fmt.Errorf("demon: checkpoint was taken with window-relative BSS %q, configuration has %q",
					meta.bss, rel)
			}
			ms := borders.NewModelStore(cfg.Store, windowCheckpointPrefix)
			stored, err := ms.Slots()
			if err != nil {
				return err
			}
			present := make(map[int]bool, len(stored))
			for _, s := range stored {
				present[s] = true
			}
			slots := make([]*borders.Model, m.g.WindowSize())
			for i := range slots {
				if !present[i] {
					return fmt.Errorf("demon: checkpoint is missing model slot %d of %d", i, len(slots))
				}
				if slots[i], err = ms.Load(i); err != nil {
					return err
				}
			}
			if err := m.g.RestoreState(slots, meta.t); err != nil {
				return err
			}
			m.nextTx = meta.totalTx
			if m.oldest, err = oldestTxBlock(cfg.Store, meta.t); err != nil {
				return err
			}
			m.sh.Restored(meta.t)
			return nil
		})
}

// oldestTxBlock finds the oldest block a window miner's store still holds,
// or t+1 when it holds none.
func oldestTxBlock(store Store, t BlockID) (BlockID, error) {
	keys, err := store.Keys(itemset.BlockPrefix)
	if err != nil {
		return 0, err
	}
	oldest := t + 1
	for _, key := range keys {
		id, err := strconv.ParseUint(key[len(itemset.BlockPrefix):], 10, 63)
		if err != nil {
			return 0, fmt.Errorf("demon: %w: block key %q", diskio.ErrCorrupt, key)
		}
		oldest = min(oldest, BlockID(id))
	}
	return oldest, nil
}

// clusterConfigFingerprint encodes the parameters a cluster checkpoint
// depends on, so restore can reject a mismatched configuration instead of
// decoding the tree under the wrong invariants. The three zeros are retired
// slots (outlier buffering, its size bound, the descent metric), kept so that
// existing checkpoints still match.
func clusterConfigFingerprint(k int, tree cf.TreeConfig) []byte {
	buf := diskio.AppendUvarint(nil, uint64(k))
	buf = diskio.AppendInts(buf, []int{
		tree.Branching, tree.LeafEntries, tree.MaxLeafEntriesTotal, 0, 0, 0,
	})
	return diskio.AppendUvarint(buf, math.Float64bits(tree.Threshold))
}

func (m *ClusterMiner) saveCheckpoint(store Store, t BlockID) error {
	if err := store.Put(clusterCheckpointPrefix+"/tree", m.plus.EncodeState()); err != nil {
		return fmt.Errorf("demon: saving cluster checkpoint: %w", err)
	}
	fp := clusterConfigFingerprint(m.cfg.K, treeConfig(m.cfg.Tree))
	if err := store.Put(clusterCheckpointPrefix+"/config", fp); err != nil {
		return fmt.Errorf("demon: saving cluster checkpoint: %w", err)
	}
	return putCheckpointMeta(store, clusterCheckpointPrefix, checkpointMeta{t: t, totalTx: m.plus.NumPoints()})
}

// RestoreClusterMiner rebuilds a cluster miner from a checkpoint previously
// written to cfg.Store by Checkpoint. K and the CF-tree parameters must
// match the original configuration; a mismatch is rejected.
func RestoreClusterMiner(cfg ClusterMinerConfig) (*ClusterMiner, error) {
	return openClusterMiner(cfg, true)
}

// ResumeClusterMiner opens a cluster miner over cfg.Store, restoring from a
// checkpoint when one exists and starting fresh otherwise. A corrupt
// checkpoint is an error, never a silent fresh start.
func ResumeClusterMiner(cfg ClusterMinerConfig) (*ClusterMiner, error) {
	return openClusterMiner(cfg, false)
}

func openClusterMiner(cfg ClusterMinerConfig, mustExist bool) (*ClusterMiner, error) {
	return durable.Open(cfg.Store, clusterCheckpointPrefix, mustExist,
		func() (*ClusterMiner, error) { return NewClusterMiner(cfg) },
		func(m *ClusterMiner, raw []byte) error {
			meta, err := decodeCheckpointMeta(raw)
			if err != nil {
				return err
			}
			fp, err := cfg.Store.Get(clusterCheckpointPrefix + "/config")
			if err != nil {
				return fmt.Errorf("demon: cluster-miner checkpoint config: %w", err)
			}
			if want := clusterConfigFingerprint(cfg.K, treeConfig(cfg.Tree)); string(fp) != string(want) {
				return fmt.Errorf("demon: checkpoint was taken under a different cluster configuration "+
					"(K or CF-tree parameters changed); restore with the original K=%d/tree settings", cfg.K)
			}
			state, err := cfg.Store.Get(clusterCheckpointPrefix + "/tree")
			if err != nil {
				return fmt.Errorf("demon: cluster-miner checkpoint tree: %w", err)
			}
			if m.plus, err = birch.RestorePlus(birch.Config{Tree: treeConfig(cfg.Tree), K: cfg.K}, state); err != nil {
				return err
			}
			m.sh.Restored(meta.t)
			return nil
		})
}

// Checkpoint rewrites the monitor's position record. Every block's
// transaction already carries it, so this changes nothing a resume would
// see; it exists so the four durable kinds can be driven alike.
func (m *Monitor) Checkpoint() error { return m.sh.Checkpoint() }

// saveCheckpoint writes the position record — t and the next TID, two
// uvarints — which is the monitor's whole checkpoint: the deviation state is
// derived from the stored blocks, so every block's transaction carries it.
func (m *Monitor) saveCheckpoint(store Store, t BlockID) error {
	buf := diskio.AppendUvarint(nil, uint64(t))
	buf = diskio.AppendUvarint(buf, uint64(m.next))
	return store.Put(monitorCheckpointPrefix+"/meta", buf)
}

func decodeMonitorMeta(data []byte) (t BlockID, next int, err error) {
	var f [2]uint64
	rest, err := readUvarints(data, f[:])
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("demon: %w: %d trailing bytes after monitor meta", diskio.ErrCorrupt, len(rest))
	}
	return BlockID(f[0]), int(f[1]), err
}

// ResumeMonitor opens a monitor over cfg.Store: when the store holds a
// position record the monitor replays the stored blocks up to it, otherwise
// it starts fresh. The configuration must match the original's; a corrupt
// record or a missing block is an error, never a silent fresh start.
func ResumeMonitor(cfg MonitorConfig) (*Monitor, error) {
	return durable.Open(cfg.Store, monitorCheckpointPrefix, false,
		func() (*Monitor, error) { return NewMonitor(cfg) },
		func(m *Monitor, raw []byte) error {
			t, next, err := decodeMonitorMeta(raw)
			if err != nil {
				return err
			}
			for id := BlockID(1); id <= t; id++ {
				blk, err := m.blocks.Get(id)
				if err == nil {
					_, err = m.absorb(blk)
				}
				if err != nil {
					return fmt.Errorf("demon: replaying monitor block %d: %w", id, err)
				}
			}
			m.next = next
			m.sh.Restored(t)
			return nil
		})
}
