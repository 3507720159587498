package demon

import (
	"context"
	"fmt"
	"time"

	"github.com/demon-mining/demon/internal/durable"
	"github.com/demon-mining/demon/internal/focus"
	"github.com/demon-mining/demon/internal/itemset"
	"github.com/demon-mining/demon/internal/obs"
	"github.com/demon-mining/demon/internal/pattern"
)

// MonitorConfig configures a Monitor.
type MonitorConfig struct {
	// MinSupport is the threshold the per-block frequent-itemset models are
	// mined at for the FOCUS deviation (the paper's Section 5.3 uses 1%).
	MinSupport float64
	// Alpha is the significance level: two blocks are similar when the
	// probability that they come from the same process is at least Alpha.
	Alpha float64
	// Window optionally restricts detection to the most recent Window
	// blocks (0 = unrestricted).
	Window int
	// Bootstrap switches the significance computation from the parametric
	// approximation to bootstrap resampling.
	Bootstrap bool
	// Resamples is the bootstrap resample count (default 100).
	Resamples int
	// Seed drives bootstrap resampling.
	Seed int64
	// Store optionally makes the monitor durable: every block is stored, with
	// the position record, in one atomic transaction as the detector absorbs
	// it, and ResumeMonitor replays the history. Without one it is in-memory.
	Store Store
	// TxnHook, when non-nil, runs inside every AddBlock transaction before
	// commit (requires Store); see ItemsetMinerConfig.TxnHook.
	TxnHook func(store Store, id BlockID) error
}

// MonitorReport describes one Monitor.AddBlock step — the per-block cost
// plotted in Figure 10.
type MonitorReport struct {
	// Block is the identifier assigned to the block.
	Block BlockID
	// Deviations is the number of pairwise deviations computed.
	Deviations int
	// Elapsed is the total time of the step.
	Elapsed time.Duration
	// DeviationTime is the share of Elapsed spent computing FOCUS deviations
	// against earlier blocks; together with ExtendTime it makes the Figure 10
	// cost decomposition reproducible from a single run. The rest is mining
	// the block's model, once, and storing the block.
	DeviationTime time.Duration
	// ExtendTime is the share of Elapsed spent extending existing compact
	// sequences with the new block.
	ExtendTime time.Duration
	// SimilarTo is how many earlier blocks this block is similar to.
	SimilarTo int
	// Extended is how many existing compact sequences the block joined.
	Extended int
}

// Monitor discovers compact sequences of similar blocks in an evolving
// transactional database: the Section 4 pattern-detection algorithm over the
// FOCUS frequent-itemset deviation.
type Monitor struct {
	// The shell runs AddBlock and makes readers (Patterns, AllSequences,
	// Similarity, T) safe concurrently with it.
	resident
	differ focus.ItemsetDiffer
	det    *pattern.Detector[*focus.ItemsetModel]
	blocks *itemset.BlockStore // over the shell's store; nil when in-memory
	next   int                 // TID of the next block's first transaction
}

// NewMonitor creates a monitor over an empty database. With a configured
// Store, incomplete transactions left by a crash are recovered first.
func NewMonitor(cfg MonitorConfig) (*Monitor, error) {
	if cfg.MinSupport <= 0 || cfg.MinSupport >= 1 {
		return nil, fmt.Errorf("demon: minimum support %v outside (0, 1)", cfg.MinSupport)
	}
	mode := focus.Parametric
	if cfg.Bootstrap {
		mode = focus.Bootstrap
	}
	differ := focus.ItemsetDiffer{
		MinSupport: cfg.MinSupport,
		Mode:       mode,
		Resamples:  cfg.Resamples,
		Seed:       cfg.Seed,
	}
	// Zero is the detector's unrestricted window; a negative Window means it too.
	det, err := pattern.New[*focus.ItemsetModel](differ, cfg.Alpha, max(cfg.Window, 0))
	if err != nil {
		return nil, err
	}
	m := &Monitor{differ: differ, det: det}
	m.sh, err = durable.New(durable.Config{Store: cfg.Store, CheckpointEvery: 1, Hook: cfg.TxnHook, Save: m.saveCheckpoint})
	if err != nil {
		return nil, err
	}
	if io := m.sh.Store(); io != nil {
		m.blocks = itemset.NewBlockStore(io)
	}
	return m, nil
}

// AddBlock ingests the next block of transactions, which must be non-empty,
// and updates the set of compact sequences. With a configured Store the
// block and the position record commit as one atomic transaction. An error
// once the step has begun leaves the monitor unusable; reopen it with
// ResumeMonitor. An empty block and one with a negative item id
// (ErrNegativeItem) are refused before it begins.
func (m *Monitor) AddBlock(transactions [][]Item) (*MonitorReport, error) {
	return m.AddBlockCtx(context.Background(), transactions)
}

// AddBlockCtx is AddBlock carrying a request context: when ctx belongs to a
// sampled trace, the block's deviation-detection span and the storage
// transaction commit record into it.
func (m *Monitor) AddBlockCtx(ctx context.Context, transactions [][]Item) (*MonitorReport, error) {
	if err := checkRows(transactions); err != nil {
		return nil, err
	}
	// The FOCUS deviation against an empty block is undefined; refusing it
	// here, before the step, keeps the error from being sticky.
	if len(transactions) == 0 {
		return nil, fmt.Errorf("demon: a monitor block must not be empty")
	}
	var rep *MonitorReport
	err := m.sh.Step(ctx, obs.Default().Timer("monitor.addblock.ns"), func(_ context.Context, id BlockID) error {
		start := time.Now()
		blk := itemset.NewTxBlock(id, m.next, transactions)
		m.next += blk.Len()
		if m.blocks != nil {
			if err := m.blocks.Put(blk); err != nil {
				return fmt.Errorf("demon: storing monitor block %d: %w", id, err)
			}
		}
		st, err := m.absorb(blk)
		if err != nil {
			return err
		}
		rep = &MonitorReport{
			Block:         id,
			Deviations:    st.Deviations,
			Elapsed:       time.Since(start),
			DeviationTime: st.DeviationTime,
			ExtendTime:    st.ExtendTime,
			SimilarTo:     st.SimilarTo,
			Extended:      st.Extended,
		}
		return nil
	})
	return rep, err
}

// absorb mines the block's frequent itemsets, once, and hands the model to
// the detector, which compares it with every retained earlier model.
func (m *Monitor) absorb(blk *itemset.TxBlock) (pattern.Stats, error) {
	model, err := m.differ.Mine(blk)
	if err != nil {
		return pattern.Stats{}, err
	}
	return m.det.AddBlock(blk.ID, model)
}

// Patterns returns the maximal compact sequences discovered so far, as
// lists of block identifiers.
func (m *Monitor) Patterns() [][]BlockID {
	m.sh.RLock()
	defer m.sh.RUnlock()
	return m.det.Maximal()
}

// AllSequences returns every maintained compact sequence (one per starting
// block), including those subsumed by longer ones.
func (m *Monitor) AllSequences() [][]BlockID {
	m.sh.RLock()
	defer m.sh.RUnlock()
	return m.det.Sequences()
}

// Similarity returns the cached deviation between two previously added
// blocks. Under a Window, ok is false for blocks a Window or more apart:
// their deviation was never computed.
func (m *Monitor) Similarity(a, b BlockID) (score, pValue float64, ok bool) {
	m.sh.RLock()
	defer m.sh.RUnlock()
	dev, ok := m.det.Similarity(a, b)
	return dev.Score, dev.PValue, ok
}

// CyclicPattern post-processes a compact sequence into its longest cyclic
// subsequence with the given period, e.g. extracting ⟨D1, D3, D5, D7⟩ from
// ⟨D1, D3, D4, D5, D7⟩.
func CyclicPattern(seq []BlockID, period BlockID) []BlockID {
	return pattern.CyclicSubsequence(seq, period)
}

// CheckpointT returns the position the stored history covers: with a Store
// it equals T after every block, without one it stays 0.
func (m *Monitor) CheckpointT() BlockID { return m.sh.CheckpointT() }
