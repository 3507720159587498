package demon

import (
	"context"
	"fmt"
	"sort"
	"time"

	"github.com/demon-mining/demon/internal/borders"
	"github.com/demon-mining/demon/internal/durable"
	"github.com/demon-mining/demon/internal/itemset"
	"github.com/demon-mining/demon/internal/obs"
	"github.com/demon-mining/demon/internal/tidlist"
)

// ItemsetMinerConfig configures an ItemsetMiner.
type ItemsetMinerConfig struct {
	// MinSupport is the fractional minimum support κ ∈ (0, 1).
	MinSupport float64
	// Strategy selects the update-phase counting procedure (default PTScan).
	Strategy CountingStrategy
	// Store persists blocks and TID-lists; defaults to an in-memory store.
	Store Store
	// BSS restricts which blocks enter the model (window-independent);
	// defaults to all blocks. Skipped blocks are still ingested so that a
	// later threshold change or a second miner can see them.
	BSS BSS
	// ECUTPlusBudget caps, per block, the number of TID entries spent on
	// materialized 2-itemset lists (the M_i of Section 3.1.1). Zero or
	// negative means unlimited. Ignored unless Strategy is ECUTPlus.
	ECUTPlusBudget int64
	// Workers has no effect: unrestricted-window ingestion is serial (kept
	// for benchmark/miners.go). The window miner's Workers fans its GEMM
	// slots.
	Workers int
	// AutoCheckpointEvery checkpoints the model automatically after every
	// N-th block, inside the same atomic transaction as the block itself.
	// Zero or negative disables automatic checkpoints.
	AutoCheckpointEvery int
	// TxnHook, when non-nil, is invoked inside every AddBlock transaction —
	// after the block's writes and any automatic checkpoint, before commit —
	// with the transactional store view and the block's identifier. Writes
	// it performs become durable atomically with the block or not at all;
	// the serving layer persists its ingest-sequence high-water mark through
	// it. A hook error aborts the block like any other transaction failure.
	TxnHook func(store Store, id BlockID) error
}

// MaintenanceReport describes one AddBlock step.
type MaintenanceReport struct {
	// Block is the identifier assigned to the added block.
	Block BlockID
	// Selected reports whether the BSS selected the block; when false the
	// model carried over unchanged.
	Selected bool
	// Detection and Update are the BORDERS phase times.
	Detection time.Duration
	Update    time.Duration
	// Promoted / Demoted are border promotions and frequent demotions.
	Promoted, Demoted int
	// CandidatesCounted is the number of new candidates the update phase
	// counted.
	CandidatesCounted int
	// Ingest is the time spent storing the block and materializing its
	// TID-lists.
	Ingest time.Duration
}

// ItemsetMiner maintains the set of frequent itemsets (and its negative
// border) over the unrestricted window of a systematically evolving
// transactional database, using the BORDERS algorithm with the configured
// counting strategy.
type ItemsetMiner struct {
	// The shell (sh) runs the mutating calls (AddBlock, DeleteOldestBlock,
	// ChangeMinSupport, Checkpoint) under its write lock and makes readers
	// (FrequentItemsets, Lattice, Rules, T, ModelBlocks), which share its
	// read lock, safe concurrently with them.
	checkpointed
	cfg     ItemsetMinerConfig
	blocks  *itemset.BlockStore
	tids    *tidlist.Store
	mt      *borders.Maintainer
	model   *borders.Model
	totalTx int // all ingested transactions, selected or not (drives TIDs)
}

// NewItemsetMiner creates a miner over an empty database. Incomplete
// transactions left in the store by a crash are recovered (rolled back or
// forward) before the miner starts.
func NewItemsetMiner(cfg ItemsetMinerConfig) (*ItemsetMiner, error) {
	if cfg.MinSupport <= 0 || cfg.MinSupport >= 1 {
		return nil, fmt.Errorf("demon: minimum support %v outside (0, 1)", cfg.MinSupport)
	}
	if cfg.Store == nil {
		cfg.Store = NewMemStore()
	}
	if cfg.BSS == nil {
		cfg.BSS = AllBlocks()
	}
	m := &ItemsetMiner{cfg: cfg}
	var err error
	m.sh, err = durable.New(durable.Config{Store: cfg.Store, CheckpointEvery: cfg.AutoCheckpointEvery,
		Hook: cfg.TxnHook, Save: m.saveCheckpoint})
	if err != nil {
		return nil, err
	}
	io := m.sh.Store()
	m.blocks = itemset.NewBlockStore(io)
	m.tids = tidlist.NewStore(io)
	counter, err := newCounter(cfg.Strategy, m.blocks, m.tids)
	if err != nil {
		return nil, err
	}
	m.mt = &borders.Maintainer{Store: m.blocks, Counter: counter, MinSupport: cfg.MinSupport, IO: io}
	m.model = m.mt.Empty()
	return m, nil
}

// newCounter builds the update-phase counting strategy.
func newCounter(s CountingStrategy, bs *itemset.BlockStore, ts *tidlist.Store) (borders.Counter, error) {
	switch s {
	case PTScan:
		return borders.PTScan{Blocks: bs}, nil
	case ECUT:
		return borders.ECUT{TIDs: ts}, nil
	case ECUTPlus:
		return borders.ECUTPlus{TIDs: ts}, nil
	default:
		return nil, fmt.Errorf("demon: unknown counting strategy %d", int(s))
	}
}

// ingest stores a transaction block and materializes its TID-lists (and,
// under ECUT+, the TID-lists of the current frequent 2-itemsets, ranked by
// overall support per the paper's heuristic).
func ingestTxBlock(blocks *itemset.BlockStore, tids *tidlist.Store, strategy CountingStrategy,
	budget int64, model *borders.Model, blk *itemset.TxBlock) error {

	if err := blocks.Put(blk); err != nil {
		return err
	}
	if strategy != ECUT && strategy != ECUTPlus {
		return nil
	}
	if err := tids.Materialize(blk); err != nil {
		return err
	}
	if strategy != ECUTPlus {
		return nil
	}
	pairs := frequent2ItemsetsBySupport(model)
	if len(pairs) == 0 {
		return nil
	}
	if budget <= 0 {
		budget = -1
	}
	_, _, err := tids.MaterializePairs(blk, pairs, budget)
	return err
}

// frequent2ItemsetsBySupport lists the model's frequent 2-itemsets in
// decreasing support order, ties broken by itemset key. Key order is byte
// order over varints, not numeric item order (item 300 sorts before item
// 200); the order decides which pairs a budget materializes, so it is part
// of the stored format.
func frequent2ItemsetsBySupport(m *borders.Model) []itemset.Itemset {
	type scored struct {
		set   itemset.Itemset
		key   itemset.Key
		count int
	}
	var all []scored
	m.EachFrequent(func(x itemset.Itemset, count int) {
		if len(x) == 2 {
			all = append(all, scored{x.Clone(), x.Key(), count})
		}
	})
	sort.Slice(all, func(i, j int) bool {
		if all[i].count != all[j].count {
			return all[i].count > all[j].count
		}
		return all[i].key < all[j].key
	})
	out := make([]itemset.Itemset, len(all))
	for i, s := range all {
		out[i] = s.set
	}
	return out
}

// checkRows refuses a block no miner can store, before its step begins: the
// error (ErrNegativeItem) is the caller's to fix and leaves the miner usable.
func checkRows(transactions [][]Item) error {
	if err := itemset.CheckRows(transactions); err != nil {
		return fmt.Errorf("demon: %w", err)
	}
	return nil
}

// AddBlock appends the next block of transactions to the database and, when
// the BSS selects it, updates the maintained model. It returns a report of
// what the maintenance step did.
//
// The block's writes — transactions, TID-lists, and the automatic checkpoint
// when one is due — commit as a single atomic transaction: after a crash or
// error the store holds either all of them or none. On error the miner
// becomes unusable (the in-memory model may disagree with the rolled-back
// store); reopen it with ResumeItemsetMiner. A block with a negative item id
// is refused with ErrNegativeItem before anything is written, and the miner
// stays usable.
func (m *ItemsetMiner) AddBlock(transactions [][]Item) (*MaintenanceReport, error) {
	return m.AddBlockCtx(context.Background(), transactions)
}

// AddBlockCtx is AddBlock carrying a request context: when ctx belongs to a
// sampled trace, the block's ingest span and the storage transaction commit
// record into that trace (see internal/obs).
func (m *ItemsetMiner) AddBlockCtx(ctx context.Context, transactions [][]Item) (*MaintenanceReport, error) {
	if err := checkRows(transactions); err != nil {
		return nil, err
	}
	var rep *MaintenanceReport
	err := m.sh.Step(ctx, obs.Default().Timer("miner.itemset.addblock.ns"), func(_ context.Context, id BlockID) error {
		blk := itemset.NewTxBlock(id, m.totalTx, transactions)
		m.totalTx += len(blk.Txs)

		start := time.Now()
		if err := ingestTxBlock(m.blocks, m.tids, m.cfg.Strategy, m.cfg.ECUTPlusBudget, m.model, blk); err != nil {
			return fmt.Errorf("demon: ingesting block %d: %w", id, err)
		}
		ingest := time.Since(start)

		rep = &MaintenanceReport{Block: id}
		if m.cfg.BSS.Bit(id) {
			st, err := m.mt.AddBlock(m.model, blk)
			if err != nil {
				return err
			}
			rep = maintenanceReport(id, st)
		}
		rep.Ingest = ingest
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// maintenanceReport describes a step that ran the BORDERS phases on block id.
func maintenanceReport(id BlockID, st borders.Stats) *MaintenanceReport {
	return &MaintenanceReport{Block: id, Selected: true, Detection: st.Detection, Update: st.Update,
		Promoted: st.Promoted, Demoted: st.Demoted, CandidatesCounted: st.CandidatesCounted}
}

// DeleteOldestBlock removes the oldest selected block from the model (the
// AuM option of Section 3.2.4). The block's data remains in the store. An
// error once the update has begun leaves the miner unusable, like a failed
// AddBlock.
func (m *ItemsetMiner) DeleteOldestBlock() (*MaintenanceReport, error) {
	var rep *MaintenanceReport
	err := m.sh.Mutate(func() error {
		if len(m.model.Blocks) == 0 {
			return fmt.Errorf("demon: model covers no blocks")
		}
		return nil
	}, func() error {
		id := m.model.Blocks[0]
		st, err := m.mt.DeleteBlock(m.model, id)
		if err != nil {
			return err
		}
		rep = maintenanceReport(id, st)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// ChangeMinSupport retargets the model to a new threshold κ′: raising is
// free, lowering triggers the BORDERS update phase. An error once the update
// has begun leaves the miner unusable, like a failed AddBlock.
func (m *ItemsetMiner) ChangeMinSupport(minsup float64) (*MaintenanceReport, error) {
	var rep *MaintenanceReport
	err := m.sh.Mutate(func() error {
		if minsup <= 0 || minsup >= 1 {
			return fmt.Errorf("demon: minimum support %v outside (0, 1)", minsup)
		}
		return nil
	}, func() error {
		st, err := m.mt.ChangeMinSupport(m.model, minsup)
		if err != nil {
			return err
		}
		m.cfg.MinSupport = minsup
		rep = maintenanceReport(0, st)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// Lattice returns a snapshot of the maintained model (frequent itemsets and
// negative border with counts). The snapshot is the caller's to mutate; it
// does not track later maintenance.
func (m *ItemsetMiner) Lattice() *Lattice {
	m.sh.RLock()
	defer m.sh.RUnlock()
	return m.model.Lattice()
}

// FrequentItemsets lists the frequent itemsets with supports, in
// deterministic order.
func (m *ItemsetMiner) FrequentItemsets() []ItemsetSupport {
	m.sh.RLock()
	defer m.sh.RUnlock()
	return itemsetSupports(m.model.EachFrequent, m.model.N)
}

// BorderItemsets lists the negative border — the minimal infrequent
// itemsets the model tracks — with supports, in deterministic order.
func (m *ItemsetMiner) BorderItemsets() []ItemsetSupport {
	m.sh.RLock()
	defer m.sh.RUnlock()
	return itemsetSupports(m.model.EachBorder, m.model.N)
}

// itemsetSupports collects the sets each hands out, with their counts and
// their fractional supports over n transactions.
func itemsetSupports(each func(func(Itemset, int)), n int) []ItemsetSupport {
	out := []ItemsetSupport{}
	each(func(x Itemset, c int) {
		out = append(out, ItemsetSupport{Itemset: x.Clone(), Count: c, Support: float64(c) / float64(max(n, 1))})
	})
	return out
}

// ModelBlocks returns the identifiers of the blocks the model currently
// covers (those the BSS selected, minus any deleted).
func (m *ItemsetMiner) ModelBlocks() []BlockID {
	m.sh.RLock()
	defer m.sh.RUnlock()
	out := make([]BlockID, len(m.model.Blocks))
	copy(out, m.model.Blocks)
	return out
}

// Store exposes the underlying store for I/O accounting.
func (m *ItemsetMiner) Store() Store { return m.cfg.Store }
