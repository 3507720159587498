package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	demon "github.com/demon-mining/demon"
	"github.com/demon-mining/demon/internal/blockio"
	"github.com/demon-mining/demon/internal/obs"
	"github.com/demon-mining/demon/internal/obs/log"
)

// Sentinel errors the HTTP layer maps to status codes.
var (
	// ErrQueueFull reports backpressure: the namespace's bounded ingest
	// queue is at capacity (HTTP 429 + Retry-After).
	ErrQueueFull = errors.New("serve: ingest queue full")
	// ErrDraining reports that intake has stopped for shutdown (HTTP 503).
	ErrDraining = errors.New("serve: namespace draining")
	// ErrWrongKind reports a payload the namespace cannot ingest — points
	// into a transaction model or vice versa (HTTP 400).
	ErrWrongKind = errors.New("serve: block kind does not match namespace kind")
	// ErrEmptyBlock reports a block without transactions offered to a monitor
	// namespace: the FOCUS deviation is undefined against an empty block, and
	// a sequenced client would re-send it forever (HTTP 400).
	ErrEmptyBlock = errors.New("serve: monitor namespaces cannot ingest an empty block")
)

// queued is one entry of the ingest queue: a block, or a flush marker whose
// reply channel the worker signals once everything enqueued before it has
// been applied (and, when checkpoint is set, checkpointed).
//
// Block entries carry the span context of the ingest request and their
// enqueue time, so the worker can record the enqueue→dequeue wait into the
// request's trace and apply the block under the same trace — the queue hop
// is where the context.Context chain breaks, and this is the bridge across
// it. The epoch stamps which model generation admitted the entry: a reopen
// bumps the namespace epoch, and the worker discards entries from earlier
// generations instead of applying them to a model that no longer expects
// their position.
type queued struct {
	block      blockio.Block
	flush      chan error
	checkpoint bool

	epoch    uint64
	sc       obs.SpanContext
	enqueued time.Time
}

// ageTracker follows the enqueue times of blocks still waiting in the
// queue, so the collector can expose the oldest-enqueued-block age (the
// second half of ingest lag, alongside queue depth). Pushes come from many
// Enqueue goroutines, pops from the single worker; because a pop can win
// the race against the push of the very entry it dequeued, a pop on an
// empty tracker records debt that the next push cancels.
type ageTracker struct {
	mu   sync.Mutex
	ts   []time.Time
	debt int
}

func (a *ageTracker) push(t time.Time) {
	a.mu.Lock()
	if a.debt > 0 {
		a.debt--
	} else {
		a.ts = append(a.ts, t)
	}
	a.mu.Unlock()
}

func (a *ageTracker) pop() {
	a.mu.Lock()
	if len(a.ts) == 0 {
		a.debt++
	} else {
		a.ts = a.ts[1:]
	}
	a.mu.Unlock()
}

// oldestAge returns how long the oldest still-enqueued block has waited
// (0 when the queue is empty).
func (a *ageTracker) oldestAge(now time.Time) time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.ts) == 0 {
		return 0
	}
	return now.Sub(a.ts[0])
}

// miner is what the four durable models of the demon facade share.
type miner interface {
	// T returns the identifier of the latest applied block.
	T() demon.BlockID
	// CheckpointT returns the position the last checkpoint covers; it equals
	// T exactly when a crash could not roll the model back.
	CheckpointT() demon.BlockID
	// Checkpoint persists the resident model through the store's
	// transaction layer.
	Checkpoint() error
}

// model is one generation of a namespace's resident miner, set once by
// openModel per the spec kind: the facade miner itself plus the one thing the
// kinds' signatures do not share — which payload of a block they ingest. It
// lives behind an atomic pointer on the Namespace so auto-reopen can swap in
// a freshly resumed generation while query handlers keep reading the old one
// without locks, asserting the query surface they serve on its miner.
type model struct {
	miner
	// apply feeds one block to the miner — each call is one atomic store
	// transaction: after a crash the store holds all of the block's writes
	// or none. ctx carries the ingest request's span context across the
	// queue hop.
	apply func(ctx context.Context, b blockio.Block) error
}

// applyRows is the apply of a kind that ingests transaction rows, whatever its
// AddBlockCtx reports.
func applyRows[R any](add func(context.Context, [][]demon.Item) (R, error)) func(context.Context, blockio.Block) error {
	return func(ctx context.Context, b blockio.Block) error {
		_, err := add(ctx, b.Items())
		return err
	}
}

// openModel creates or resumes one model generation over the store via the
// Resume* recovery paths, wires hook into every block transaction, and
// reconciles the persisted sequence record with the position the model
// restored to.
func openModel(store demon.Store, spec Spec, hook func(demon.Store, demon.BlockID) error) (model, uint64, error) {
	var m model
	strategy, err := spec.strategy()
	if err != nil {
		return model{}, 0, err
	}
	switch spec.Kind {
	case KindItemset:
		var mn *demon.ItemsetMiner
		mn, err = demon.ResumeItemsetMiner(demon.ItemsetMinerConfig{
			MinSupport:          spec.MinSupport,
			Strategy:            strategy,
			Store:               store,
			BSS:                 spec.bss(),
			Workers:             spec.workers(),
			AutoCheckpointEvery: spec.CheckpointEvery,
			TxnHook:             hook,
		})
		m = model{mn, applyRows(mn.AddBlockCtx)}
	case KindWindow:
		cfg := demon.ItemsetWindowMinerConfig{
			MinSupport:          spec.MinSupport,
			Strategy:            strategy,
			Store:               store,
			WindowSize:          spec.WindowSize,
			BSS:                 spec.bss(),
			Workers:             spec.workers(),
			AutoCheckpointEvery: spec.CheckpointEvery,
			TxnHook:             hook,
		}
		if spec.WindowRelBSS != "" {
			rel, perr := demon.ParseWindowRelBSS(spec.WindowRelBSS)
			if perr != nil {
				return model{}, 0, perr
			}
			cfg.WindowRelBSS = rel
			cfg.WindowSize = 0
		}
		var mn *demon.ItemsetWindowMiner
		mn, err = demon.ResumeItemsetWindowMiner(cfg)
		m = model{mn, applyRows(mn.AddBlockCtx)}
	case KindCluster:
		var mn *demon.ClusterMiner
		mn, err = demon.ResumeClusterMiner(demon.ClusterMinerConfig{
			K:                   spec.K,
			Store:               store,
			BSS:                 spec.bss(),
			AutoCheckpointEvery: spec.CheckpointEvery,
			TxnHook:             hook,
		})
		m = model{mn, func(ctx context.Context, b blockio.Block) error {
			_, err := mn.AddBlockCtx(ctx, b.CFPoints())
			return err
		}}
	case KindMonitor:
		var mn *demon.Monitor
		mn, err = demon.ResumeMonitor(demon.MonitorConfig{
			MinSupport: spec.MinSupport,
			Alpha:      spec.Alpha,
			Workers:    spec.workers(),
			Store:      store,
			TxnHook:    hook,
		})
		m = model{mn, applyRows(mn.AddBlockCtx)}
	}
	if err != nil {
		return model{}, 0, err
	}
	highwater, err := recoverSeq(store, m.T())
	if err != nil {
		return model{}, 0, err
	}
	return m, highwater, nil
}

// Namespace is one resident model: a durable store, a miner created or
// resumed over it, and a bounded ingest queue applied by a single worker
// goroutine — AddBlock mutators must not race, so the worker is the
// namespace's only mutator while queries read concurrently through the
// miners' RWMutex read surfaces.
//
// Sequencing state lives at three levels of durability: seqAccepted (the
// admission high-water mark, guarded by mu), seqApplied (committed to the
// store by the worker), and seqDurable (covered by a checkpoint — the only
// mark that survives a crash with certainty, and therefore the only one a
// client may trim its replay buffer to).
type Namespace struct {
	spec Spec
	dir  string

	store demon.Store

	queue chan queued
	done  chan struct{}

	// reopenBackoff is the base delay of the auto-reopen loop; <= 0
	// disables automatic recovery from sticky failures.
	reopenBackoff time.Duration

	// mu guards draining, err, seqAccepted, and epoch; senders tracks
	// in-flight blocking Flush sends so drain can close the queue without
	// racing them (Enqueue sends hold mu, which the closer also takes).
	mu          sync.Mutex
	draining    bool
	err         error
	senders     sync.WaitGroup
	seqAccepted uint64
	epoch       uint64

	// mdl is the current model generation; handlers load it without locks.
	mdl atomic.Pointer[model]

	// pendingSeq carries the sequence number of the block being applied
	// from the worker to the TxnHook running inside the miner's
	// transaction; 0 while no sequenced block is in flight.
	pendingSeq atomic.Uint64
	seqApplied atomic.Uint64
	seqDurable atomic.Uint64

	accepted   atomic.Int64
	applied    atomic.Int64
	rejected   atomic.Int64
	failed     atomic.Int64
	duplicates atomic.Int64
	reopens    atomic.Int64

	ages ageTracker
}

// openNamespace creates or resumes the namespace under dir: the durable
// store stack over dir/store (the backend the spec selects, or the server
// default) and the miner via the Resume* paths, which recover interrupted
// transactions and restore the last checkpoint — a server killed mid-block
// reopens exactly at its last durable state.
func openNamespace(dir string, spec Spec, queueDepth int, reopenBackoff time.Duration, defaultBackend string) (*Namespace, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.QueueDepth > 0 {
		queueDepth = spec.QueueDepth
	}
	if queueDepth <= 0 {
		queueDepth = DefaultQueueDepth
	}
	url, err := spec.storeURL(dir, defaultBackend)
	if err != nil {
		return nil, err
	}
	store, err := demon.OpenStore(url)
	if err != nil {
		return nil, err
	}
	n := &Namespace{
		spec:          spec,
		dir:           dir,
		store:         store,
		queue:         make(chan queued, queueDepth),
		done:          make(chan struct{}),
		reopenBackoff: reopenBackoff,
	}
	m, highwater, err := openModel(store, spec, n.txnHook)
	if err != nil {
		demon.CloseStore(store)
		return nil, fmt.Errorf("serve: opening namespace %s: %w", spec.Name, err)
	}
	n.mdl.Store(&m)
	n.seqAccepted = highwater
	n.seqApplied.Store(highwater)
	n.seqDurable.Store(highwater)
	go n.run()
	return n, nil
}

// txnHook runs inside every block transaction, persisting the (seq, t)
// record atomically with the block itself. Unsequenced blocks write
// nothing, so an unsequenced namespace's store stays byte-identical to a
// plain miner run over the same stream.
func (n *Namespace) txnHook(store demon.Store, id demon.BlockID) error {
	seq := n.pendingSeq.Load()
	if seq == 0 {
		return nil
	}
	return putSeqMeta(store, seq, id)
}

// Spec returns the namespace's configuration.
func (n *Namespace) Spec() Spec { return n.spec }

// Store exposes the namespace's store (read-only use: digests, stats).
func (n *Namespace) Store() demon.Store { return n.store }

// m returns the current model generation.
func (n *Namespace) m() model { return *n.mdl.Load() }

// T returns the identifier of the latest applied block.
func (n *Namespace) T() demon.BlockID { return n.m().T() }

// Seq returns the namespace's sequencing marks: the admission high-water
// mark (the next block must carry seq accepted+1), the last sequence
// committed to the store, and the last covered by a checkpoint (the
// client's safe trim point).
func (n *Namespace) Seq() (accepted, applied, durable uint64) {
	n.mu.Lock()
	accepted = n.seqAccepted
	n.mu.Unlock()
	return accepted, n.seqApplied.Load(), n.seqDurable.Load()
}

// Err returns the sticky ingest failure, if any. Once a block transaction
// fails the namespace refuses further ingestion until the auto-reopen loop
// resumes a fresh model generation from the store (or the server restarts);
// queries keep serving the last good model meanwhile.
func (n *Namespace) Err() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.err
}

// QueueDepth returns the current and maximum ingest queue occupancy.
func (n *Namespace) QueueDepth() (depth, capacity int) {
	return len(n.queue), cap(n.queue)
}

// Enqueue offers one block to the ingest queue without blocking: a full
// queue is backpressure (ErrQueueFull), a draining namespace rejects intake
// (ErrDraining), and a payload the model cannot absorb is refused before it
// can poison the worker (ErrWrongKind; ErrEmptyBlock on a monitor).
// Sequenced blocks additionally pass duplicate/gap admission (ErrDuplicate,
// ErrSeqGap, ErrUnsequenced).
func (n *Namespace) Enqueue(b blockio.Block) error {
	return n.EnqueueCtx(context.Background(), b)
}

// EnqueueCtx is Enqueue carrying the ingest request's context: when ctx
// belongs to a sampled trace, the block's queue wait and its application by
// the worker record into that trace even though they outlive the request.
//
// Admission and the queue send happen under one mu hold, so concurrent
// requests cannot interleave two in-order sequenced blocks into the queue
// out of order, and a block's seq is reserved if and only if it was
// actually enqueued.
func (n *Namespace) EnqueueCtx(ctx context.Context, b blockio.Block) error {
	if txPayload := b.Txs != nil; txPayload != n.spec.txKind() {
		n.rejected.Add(1)
		return fmt.Errorf("%w: %s block into %s namespace %s", ErrWrongKind, b.Kind(), n.spec.Kind, n.spec.Name)
	}
	if n.spec.Kind == KindMonitor && len(b.Txs) == 0 {
		n.rejected.Add(1)
		return fmt.Errorf("%w: namespace %s", ErrEmptyBlock, n.spec.Name)
	}
	n.mu.Lock()
	if n.draining {
		n.mu.Unlock()
		n.rejected.Add(1)
		return ErrDraining
	}
	if n.err != nil {
		err := n.err
		n.mu.Unlock()
		n.rejected.Add(1)
		return err
	}
	switch next := n.seqAccepted + 1; {
	case b.Seq == 0 && n.seqAccepted > 0:
		n.mu.Unlock()
		n.rejected.Add(1)
		return fmt.Errorf("%w: namespace %s expects seq %d", ErrUnsequenced, n.spec.Name, next)
	case b.Seq != 0 && b.Seq < next:
		n.mu.Unlock()
		n.duplicates.Add(1)
		return fmt.Errorf("%w: seq %d already accepted by namespace %s (next %d)", ErrDuplicate, b.Seq, n.spec.Name, next)
	case b.Seq > next:
		n.mu.Unlock()
		n.rejected.Add(1)
		return fmt.Errorf("%w: namespace %s got seq %d, wants %d", ErrSeqGap, n.spec.Name, b.Seq, next)
	}

	entry := queued{block: b, epoch: n.epoch, sc: obs.SpanContextFrom(ctx), enqueued: time.Now()}
	select {
	case n.queue <- entry:
		if b.Seq != 0 {
			n.seqAccepted = b.Seq
		}
		n.accepted.Add(1)
		n.ages.push(entry.enqueued)
		n.mu.Unlock()
		return nil
	default:
		n.mu.Unlock()
		n.rejected.Add(1)
		return ErrQueueFull
	}
}

// Flush blocks until every block enqueued before the call has been applied,
// checkpointing afterwards when checkpoint is set. Unlike Enqueue it waits
// for queue space, honouring ctx.
func (n *Namespace) Flush(ctx context.Context, checkpoint bool) error {
	n.mu.Lock()
	if n.draining {
		n.mu.Unlock()
		return ErrDraining
	}
	n.senders.Add(1)
	n.mu.Unlock()

	marker := queued{flush: make(chan error, 1), checkpoint: checkpoint}
	select {
	case n.queue <- marker:
		n.senders.Done()
	case <-ctx.Done():
		n.senders.Done()
		return ctx.Err()
	}
	select {
	case err := <-marker.flush:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Drain stops intake, waits for the queue to empty, and checkpoints — the
// graceful-shutdown path. The in-flight block transaction always completes:
// the worker finishes its current AddBlock (one atomic store transaction)
// before the queue closes, so a drained store is never mid-block. Drain is
// idempotent; later calls wait for the first to finish.
func (n *Namespace) Drain(ctx context.Context) error {
	n.mu.Lock()
	if !n.draining {
		n.draining = true
		// Close the queue only after every in-flight blocking Flush send has
		// finished (they checked draining before registering); Enqueue sends
		// hold mu, which the closer takes too.
		go func() {
			n.senders.Wait()
			n.mu.Lock()
			close(n.queue)
			n.mu.Unlock()
		}()
	}
	n.mu.Unlock()

	select {
	case <-n.done:
	case <-ctx.Done():
		return ctx.Err()
	}
	if err := n.Err(); err != nil {
		return fmt.Errorf("serve: namespace %s drained with sticky failure: %w", n.spec.Name, err)
	}
	return n.checkpoint()
}

// run is the namespace's single ingest worker.
func (n *Namespace) run() {
	defer close(n.done)
	for q := range n.queue {
		if q.flush != nil {
			err := n.Err()
			if err == nil && q.checkpoint {
				err = n.checkpoint()
			}
			q.flush <- err
			continue
		}
		n.ages.pop()
		// The enqueue→dequeue wait is timed externally (the worker was busy
		// elsewhere), so it is recorded, not spanned.
		wait := time.Since(q.enqueued)
		obs.Default().Timer("serve.queue.wait.ns").Record(wait)
		q.sc.RecordSpan("serve.queue.wait.ns", q.enqueued, wait)

		n.mu.Lock()
		stale := q.epoch != n.epoch || n.err != nil
		n.mu.Unlock()
		if stale {
			// A poisoned namespace keeps consuming so drain never blocks,
			// but applies nothing further; entries admitted by an earlier
			// model generation are likewise dropped — their client was told
			// to resync when the reopen reset the sequence marks.
			n.failed.Add(1)
			continue
		}
		ctx := q.sc.Context(context.Background())
		n.pendingSeq.Store(q.block.Seq)
		err := n.m().apply(ctx, q.block)
		n.pendingSeq.Store(0)
		if err != nil {
			n.failed.Add(1)
			n.mu.Lock()
			n.err = err
			n.mu.Unlock()
			log.Default().ErrorCtx(ctx, "block apply failed; namespace refuses ingestion until reopened",
				"ns", n.spec.Name, "t", int64(n.T()), "err", err)
			n.maybeReopen()
			continue
		}
		n.applied.Add(1)
		if s := q.block.Seq; s != 0 {
			n.seqApplied.Store(s)
		}
		n.promoteDurable()
	}
}

// checkpoint persists the model and promotes the applied sequence mark to
// durable.
func (n *Namespace) checkpoint() error {
	if err := n.m().Checkpoint(); err != nil {
		return err
	}
	n.promoteDurable()
	return nil
}

// promoteDurable raises the durable sequence mark to the applied one when
// the model's last checkpoint covers its position — after that, a crash
// cannot roll the model behind it. Whether a step checkpointed is the
// model's own cadence to know: the miner kinds reach it at their automatic
// checkpoints, the monitor — whose durable state is the block history
// itself — on every block.
func (n *Namespace) promoteDurable() {
	m := n.m()
	if s := n.seqApplied.Load(); s > n.seqDurable.Load() && m.CheckpointT() == m.T() {
		n.seqDurable.Store(s)
	}
}

// maybeReopen starts the auto-reopen loop after a sticky failure: with
// capped exponential backoff it resumes a fresh model generation from the
// store (the same path a server restart takes), swaps it in, and resets the
// sequence marks to what actually survived — clients then resync and re-send
// from the recovered position. The loop gives up when the namespace drains.
func (n *Namespace) maybeReopen() {
	if n.reopenBackoff <= 0 {
		return
	}
	go func() {
		const maxBackoff = 30 * time.Second
		for delay := n.reopenBackoff; ; delay = min(delay*2, maxBackoff) {
			select {
			case <-n.done:
				return
			case <-time.After(delay):
			}
			if n.tryReopen() {
				return
			}
		}
	}()
}

// tryReopen attempts one reopen; it reports true when the namespace is
// healthy again (or permanently beyond help, i.e. draining).
func (n *Namespace) tryReopen() bool {
	// Wait for the worker to finish discarding poisoned-era entries first:
	// reopening under a non-empty queue would race fresh admissions against
	// stale ones. No new entries can arrive while err is set.
	if len(n.queue) > 0 {
		return false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.draining || n.err == nil {
		return true
	}
	if len(n.queue) > 0 {
		return false
	}
	m, highwater, err := openModel(n.store, n.spec, n.txnHook)
	if err != nil {
		log.Default().Warn("namespace reopen failed; backing off",
			"ns", n.spec.Name, "err", err)
		return false
	}
	n.mdl.Store(&m)
	n.seqAccepted = highwater
	n.seqApplied.Store(highwater)
	n.seqDurable.Store(highwater)
	n.epoch++
	n.err = nil
	n.reopens.Add(1)
	log.Default().Info("namespace reopened after sticky failure",
		"ns", n.spec.Name, "t", int64(m.T()), "seq", highwater)
	return true
}

// removeDir releases the namespace's store (closing the kvfile backend's
// file handle, if that is what backs it) and deletes the directory tree;
// used by DELETE after a successful drain.
func (n *Namespace) removeDir() error {
	_ = demon.CloseStore(n.store)
	return os.RemoveAll(n.dir)
}
