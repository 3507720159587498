package demon

import (
	"context"
	"fmt"
	"time"

	"github.com/demon-mining/demon/internal/borders"
	"github.com/demon-mining/demon/internal/durable"
	"github.com/demon-mining/demon/internal/gemm"
	"github.com/demon-mining/demon/internal/itemset"
	"github.com/demon-mining/demon/internal/obs"
	"github.com/demon-mining/demon/internal/tidlist"
)

// bordersAdapter lets GEMM drive the BORDERS maintainer. The fresh slot is
// built in the memory of the model that expired a step earlier.
type bordersAdapter struct {
	mt *borders.Maintainer
}

func (a bordersAdapter) Empty(spare *borders.Model) *borders.Model { return a.mt.Recycle(spare) }

func (a bordersAdapter) Add(m *borders.Model, blk *itemset.TxBlock) (*borders.Model, error) {
	if _, err := a.mt.AddBlock(m, blk); err != nil {
		return nil, err
	}
	return m, nil
}

// ItemsetWindowMinerConfig configures an ItemsetWindowMiner. Exactly one of
// BSS (with WindowSize) or WindowRelBSS must be set; a nil BSS with a zero
// WindowRelBSS defaults to all blocks selected.
type ItemsetWindowMinerConfig struct {
	// MinSupport is the fractional minimum support κ ∈ (0, 1).
	MinSupport float64
	// Strategy selects the update-phase counting procedure (default PTScan).
	Strategy CountingStrategy
	// Store persists blocks and TID-lists; defaults to an in-memory store.
	Store Store
	// WindowSize is the number w of most recent blocks mined. Required when
	// using a window-independent BSS; inferred from WindowRelBSS otherwise.
	WindowSize int
	// BSS optionally restricts the window-independent selection.
	BSS BSS
	// WindowRelBSS optionally gives a window-relative selection; its length
	// fixes the window size.
	WindowRelBSS WindowRelBSS
	// ECUTPlusBudget caps per-block pair materialization (see
	// ItemsetMinerConfig).
	ECUTPlusBudget int64
	// Workers fans AddBlock's w GEMM slot updates, each a serial BORDERS
	// step, across this many goroutines; ingest stays serial. Zero or
	// negative selects GOMAXPROCS; 1 keeps the step serial. The model
	// collection and the stored bytes are identical for every worker count.
	Workers int
	// AutoCheckpointEvery checkpoints the model collection automatically
	// after every N-th block, inside the same atomic transaction as the
	// block itself. Zero or negative disables automatic checkpoints.
	AutoCheckpointEvery int
	// TxnHook, when non-nil, runs inside every AddBlock transaction before
	// commit; see ItemsetMinerConfig.TxnHook.
	TxnHook func(store Store, id BlockID) error
}

// WindowReport describes one AddBlock step of a window miner.
type WindowReport struct {
	// Block is the identifier assigned to the new block.
	Block BlockID
	// Response is the time until the new current model was available — the
	// time-critical single A_M invocation of Section 3.2.3.
	Response time.Duration
	// Offline is the time spent updating the remaining future-window
	// models, which the paper performs off-line.
	Offline time.Duration
	// Ingest is the time spent storing the block and materializing
	// TID-lists, and deleting the expired blocks beside them.
	Ingest time.Duration
}

// ItemsetWindowMiner maintains the set of frequent itemsets over the most
// recent window of w blocks with respect to a BSS — GEMM instantiated with
// the BORDERS maintainer.
type ItemsetWindowMiner struct {
	// The shell (sh) runs AddBlock and Checkpoint and makes readers
	// (Current, FrequentItemsets, Window, T, DistinctModels) safe
	// concurrently with them.
	checkpointed
	cfg    ItemsetWindowMinerConfig
	blocks *itemset.BlockStore
	tids   *tidlist.Store
	g      *gemm.GEMM[*itemset.TxBlock, *borders.Model]
	nextTx int
	oldest BlockID // the oldest block still stored; see expire
}

// NewItemsetWindowMiner opens a window miner over cfg.Store, restoring from
// a checkpoint when the store holds one and starting over an empty database
// otherwise. A corrupt checkpoint is an error, never a silent fresh start.
// Incomplete transactions left in the store by a crash are recovered first.
func NewItemsetWindowMiner(cfg ItemsetWindowMinerConfig) (*ItemsetWindowMiner, error) {
	return openItemsetWindowMiner(cfg, false)
}

// newItemsetWindowMiner creates a window miner over an empty database.
func newItemsetWindowMiner(cfg ItemsetWindowMinerConfig) (*ItemsetWindowMiner, error) {
	if cfg.MinSupport <= 0 || cfg.MinSupport >= 1 {
		return nil, fmt.Errorf("demon: minimum support %v outside (0, 1)", cfg.MinSupport)
	}
	if cfg.Store == nil {
		cfg.Store = NewMemStore()
	}
	m := &ItemsetWindowMiner{cfg: cfg, oldest: 1}
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
	ad := bordersAdapter{mt: &borders.Maintainer{Store: m.blocks, Counter: counter, MinSupport: cfg.MinSupport, IO: io}}
	m.g, err = gemm.New[*itemset.TxBlock, *borders.Model](ad, cfg.WindowSize, cfg.BSS, cfg.WindowRelBSS)
	if err != nil {
		return nil, err
	}
	m.g.SetWorkers(cfg.Workers)
	return m, nil
}

// AddBlock appends the next block, updates the w maintained models per
// Algorithm 3.1, and reports the response time.
//
// The block's writes commit as one atomic transaction (see
// ItemsetMiner.AddBlock); on error the miner becomes unusable and must be
// reopened with NewItemsetWindowMiner — except for ErrNegativeItem, which
// refuses the block before the step begins.
func (m *ItemsetWindowMiner) AddBlock(transactions [][]Item) (*WindowReport, error) {
	return m.AddBlockCtx(context.Background(), transactions)
}

// AddBlockCtx is AddBlock carrying a request context: when ctx belongs to a
// sampled trace, the block's ingest span, the GEMM slot maintenance, and the
// storage transaction commit record into that trace.
func (m *ItemsetWindowMiner) AddBlockCtx(ctx context.Context, transactions [][]Item) (*WindowReport, error) {
	if err := checkRows(transactions); err != nil {
		return nil, err
	}
	var rep *WindowReport
	// Read before Step, whose lock CheckpointT would wait on; a checkpoint
	// taken in between only makes this bound the lower of the two.
	ckpt := m.sh.CheckpointT()
	err := m.sh.Step(ctx, obs.Default().Timer("miner.window.addblock.ns"), func(ctx context.Context, id BlockID) error {
		blk := itemset.NewTxBlock(id, m.nextTx, transactions)
		m.nextTx += len(blk.Txs)

		rep = &WindowReport{Block: id}
		start := time.Now()
		// The expired blocks go while this one is ingested. Ingest only
		// stages writes, so the expiry's reads stay the only reads of the
		// store, in one order, until GEMM counts.
		expired := make(chan error, 1)
		go func() { expired <- m.expire(id, ckpt) }()
		// Pair materialization uses the current window model's frequent
		// 2-itemsets.
		err := ingestTxBlock(m.blocks, m.tids, m.cfg.Strategy, m.cfg.ECUTPlusBudget, m.g.Current(), blk)
		if xerr := <-expired; err == nil && xerr != nil {
			return xerr
		}
		if err != nil {
			return fmt.Errorf("demon: ingesting block %d: %w", id, err)
		}
		rep.Ingest = time.Since(start)

		start = time.Now()
		if err := m.g.AddBlockCtx(ctx, blk, id); err != nil {
			return err
		}
		total := time.Since(start)
		// GEMM times the one response-critical update, of the slot that became
		// current, where it runs; the rest of the step is off-line work.
		rep.Response = m.g.Response()
		rep.Offline = total - rep.Response
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// retainFrom is the oldest block the step at t keeps, given the durable
// checkpoint ckpt, the window w and the checkpoint interval every: what a
// restart from ckpt re-counts, or less by a lag that advances one block a
// step, so that a checkpoint step carries no bulk of deletes (DESIGN §7,
// "Retention"). It depends on its arguments alone.
func retainFrom(t, ckpt BlockID, w, every int) BlockID {
	from := ckpt - BlockID(w) + 1
	if every > 0 {
		from = min(from, t-BlockID(w+every)+2)
	}
	return from
}

// expire deletes, inside step t's transaction, every stored block below
// retainFrom: its transactions, TID-lists and pair index. No block it
// deletes is one that step t reads.
func (m *ItemsetWindowMiner) expire(t, ckpt BlockID) error {
	from := retainFrom(t, ckpt, m.g.WindowSize(), m.cfg.AutoCheckpointEvery)
	for ; m.oldest < from; m.oldest++ {
		if err := m.dropBlock(m.oldest); err != nil {
			return fmt.Errorf("demon: expiring block %d: %w", m.oldest, err)
		}
	}
	return nil
}

// dropBlock deletes block id: its TID-lists, found from its transactions,
// then the transactions.
func (m *ItemsetWindowMiner) dropBlock(id BlockID) error {
	if m.cfg.Strategy == ECUT || m.cfg.Strategy == ECUTPlus {
		b, err := m.blocks.Get(id)
		if err != nil {
			return err
		}
		if err := m.tids.DropBlock(b, m.cfg.Strategy == ECUTPlus); err != nil {
			return err
		}
	}
	return m.blocks.Delete(id)
}

// Current returns a snapshot of the model on the current most recent window
// with respect to the BSS. The snapshot is the caller's to mutate; it does
// not track later maintenance.
func (m *ItemsetWindowMiner) Current() *Lattice {
	m.sh.RLock()
	defer m.sh.RUnlock()
	return m.g.Current().Lattice()
}

// FrequentItemsets lists the current window's frequent itemsets.
func (m *ItemsetWindowMiner) FrequentItemsets() []ItemsetSupport {
	m.sh.RLock()
	defer m.sh.RUnlock()
	return itemsetSupports(m.g.Current().EachFrequent, m.g.Current().N)
}

// BorderItemsets lists the current window's negative border.
func (m *ItemsetWindowMiner) BorderItemsets() []ItemsetSupport {
	m.sh.RLock()
	defer m.sh.RUnlock()
	return itemsetSupports(m.g.Current().EachBorder, m.g.Current().N)
}

// Window returns the current most recent window.
func (m *ItemsetWindowMiner) Window() Window {
	m.sh.RLock()
	defer m.sh.RUnlock()
	return m.g.Window()
}

// DistinctModels reports how many of the w maintained models are distinct
// under the configured BSS.
func (m *ItemsetWindowMiner) DistinctModels() int {
	m.sh.RLock()
	defer m.sh.RUnlock()
	return m.g.DistinctModels()
}
