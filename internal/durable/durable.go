// Package durable is the miner-durability shell: the one implementation of
// the maintenance step every resident model — the four durable ones
// (ItemsetMiner, ItemsetWindowMiner, ClusterMiner, Monitor) and, storeless,
// the in-memory cluster window miner — runs a block through. The
// paper's persistence argument (Section 3.2.3: the model is negligibly small
// next to the data, so persist it and resume ingestion) is model-agnostic,
// and so is this package: a model supplies how it absorbs a block and how it
// writes and reads its checkpoint payload, the Shell owns the lock, the
// position, the transaction, the checkpoint cadence and the sticky failure.
//
// Two invariants hold for every model behind a Shell:
//
//   - the position advances only after the block's transaction committed;
//   - any error after the first mutation of a step is sticky: the in-memory
//     model may have absorbed what the store rolled back, so the Shell
//     refuses further steps, mutations and checkpoints until the model is
//     reopened from its last checkpoint (Open).
package durable

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"github.com/demon-mining/demon/internal/blockseq"
	"github.com/demon-mining/demon/internal/diskio"
	"github.com/demon-mining/demon/internal/obs"
)

// Config configures a Shell.
type Config struct {
	// Store persists blocks and checkpoints. Nil selects the storeless mode:
	// steps keep their order, position rule and sticky failure but open no
	// transaction, so there is nothing to checkpoint or hook into.
	Store diskio.Store
	// CheckpointEvery checkpoints automatically after every N-th block,
	// inside that block's transaction; zero or negative disables it.
	CheckpointEvery int
	// Hook, when non-nil, runs inside every block transaction — after the
	// block's writes and any automatic checkpoint, before commit — with the
	// transactional store view; what it writes becomes durable atomically
	// with the block or not at all.
	Hook func(store diskio.Store, id blockseq.ID) error
	// Save writes the checkpoint payload — the model and a position record
	// for t under the model's "<prefix>/meta" key, which Open reads back —
	// through the transactional store view.
	Save func(store diskio.Store, t blockseq.ID) error
}

// Shell runs a resident model's mutations; see the package comment.
type Shell struct {
	// mu makes the model's readers safe concurrently with one mutator: Step,
	// Mutate and Checkpoint take the write lock, readers share RLock.
	mu   sync.RWMutex
	cfg  Config
	io   *diskio.TxnStore // cfg.Store wrapped with atomic transactions; nil when storeless
	snap blockseq.Snapshot
	ckpt blockseq.ID // position of the last checkpoint written or restored
	err  error       // the sticky failure
}

// New creates a Shell at position 0. Incomplete transactions left in the
// store by a crash are recovered (rolled back or forward) first.
func New(cfg Config) (*Shell, error) {
	s := &Shell{cfg: cfg}
	if cfg.Store != nil {
		if _, err := diskio.Recover(cfg.Store); err != nil {
			return nil, fmt.Errorf("demon: recovering store: %w", err)
		}
		s.io = diskio.NewTxnStore(cfg.Store)
	}
	return s, nil
}

// Open is the restore-or-fresh entry behind every Restore* and Resume*
// function. fresh creates the model over an empty database — through New,
// which recovers the store, so the store is scanned once per open and before
// anything is read from it — and Open then hands the position record under
// prefix+"/meta" to restore, which loads the checkpoint into that model; the
// model stays fresh when the store holds no record and mustExist is false.
// Any other failure to read the record — corruption included — is an error,
// never a silent fresh start: resuming past damaged state would quietly
// diverge from the fault-free history.
func Open[M any](store diskio.Store, prefix string, mustExist bool,
	fresh func() (M, error), restore func(m M, meta []byte) error) (M, error) {

	var none M
	if store == nil && mustExist {
		return none, fmt.Errorf("demon: restoring requires the original Store")
	}
	m, err := fresh()
	if err != nil || store == nil {
		return m, err
	}
	meta, err := store.Get(prefix + "/meta")
	switch {
	case errors.Is(err, diskio.ErrNotFound) && !mustExist:
		return m, nil
	case err != nil:
		return none, fmt.Errorf("demon: reading %s: %w", prefix, err)
	}
	if err := restore(m, meta); err != nil {
		return none, err
	}
	return m, nil
}

// Restored places a freshly created Shell at the position its model was
// restored to from a checkpoint.
func (s *Shell) Restored(t blockseq.ID) {
	s.snap = blockseq.Snapshot{T: t}
	s.ckpt = t
}

// Store returns the transactional view of the configured store, through
// which a model's block writes join the step's transaction; nil when
// storeless.
func (s *Shell) Store() diskio.Store {
	if s.io == nil {
		return nil
	}
	return s.io
}

// RLock takes the read lock a model's accessors share.
func (s *Shell) RLock() { s.mu.RLock() }

// RUnlock releases RLock.
func (s *Shell) RUnlock() { s.mu.RUnlock() }

// T returns the identifier of the latest block whose step committed.
func (s *Shell) T() blockseq.ID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.snap.T
}

// CheckpointT returns the position of the last checkpoint written (or
// restored from): blocks up to it survive a crash inside the model, later
// ones only as stored data. It equals T exactly when the latest step
// checkpointed.
func (s *Shell) CheckpointT() blockseq.ID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ckpt
}

// unusable reports the sticky failure.
func (s *Shell) unusable() error {
	return fmt.Errorf("demon: miner unusable after a failed update (resume from the last checkpoint): %w", s.err)
}

// fail drops the open transaction, if any, and makes err sticky.
func (s *Shell) fail(err error) error {
	if s.io != nil {
		s.io.Rollback()
	}
	s.err = err
	return err
}

// Step is the durable maintenance step for the next block. Under the write
// lock it opens timer's span and the block's transaction, runs apply (store
// block id, update the model), writes the automatic checkpoint when one is
// due, runs the hook, commits, and only then advances the position — so
// after a crash or error the store holds all of the block's writes or none.
// Any error rolls the transaction back and is sticky. ctx carries the
// request's trace into the span, apply and the commit.
func (s *Shell) Step(ctx context.Context, timer *obs.Timer, apply func(ctx context.Context, id blockseq.ID) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.unusable()
	}
	span := timer.StartCtx(ctx)
	defer span.End()
	ctx = span.Ctx(ctx)

	snap, id := s.snap.Append()
	if s.io != nil {
		s.io.BeginCtx(ctx)
	}
	if err := apply(ctx, id); err != nil {
		return s.fail(err)
	}
	if s.io != nil {
		due := s.cfg.CheckpointEvery > 0 && int(id)%s.cfg.CheckpointEvery == 0
		if err := s.commit(ctx, id, due); err != nil {
			return s.fail(err)
		}
		if due {
			s.ckpt = id
		}
	}
	s.snap = snap
	return nil
}

// commit closes block id's transaction: checkpoint when due, hook, Commit.
func (s *Shell) commit(ctx context.Context, id blockseq.ID, checkpoint bool) error {
	if checkpoint {
		if err := s.save(ctx, id); err != nil {
			return err
		}
	}
	if s.cfg.Hook != nil {
		if err := s.cfg.Hook(s.io, id); err != nil {
			return fmt.Errorf("demon: block %d transaction hook: %w", id, err)
		}
	}
	return s.io.Commit()
}

// Mutate runs a model update that is not a block — deleting one, retargeting
// a threshold — under the write lock. check validates the request against
// the model before anything changes, and its error leaves the model usable;
// an error from mutate may have left the model half-updated and is sticky
// like a failed block.
func (s *Shell) Mutate(check, mutate func() error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.unusable()
	}
	if err := check(); err != nil {
		return err
	}
	if err := mutate(); err != nil {
		return s.fail(err)
	}
	return nil
}

// Checkpoint persists the model and its position atomically, in a
// transaction of its own. It requires a Store. A failure to commit is
// sticky, like a failed step's.
func (s *Shell) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.unusable()
	}
	if s.io == nil {
		return fmt.Errorf("demon: checkpointing requires a Store")
	}
	if err := s.save(context.Background(), s.snap.T); err != nil {
		return err
	}
	s.ckpt = s.snap.T
	return nil
}

// save stages the checkpoint payload in a transaction of its own, or joins
// the caller's (Step checkpoints inside the block's transaction, making
// block and checkpoint one atomic unit): the payload's records become
// visible together or not at all, so a crash mid-checkpoint can never leave
// a position record pointing at a half-written model. The span records into
// ctx's trace when one is attached.
func (s *Shell) save(ctx context.Context, t blockseq.ID) error {
	span := obs.Default().Timer("miner.checkpoint.ns").StartCtx(ctx)
	defer span.End()
	s.io.BeginCtx(span.Ctx(ctx))
	if err := s.cfg.Save(s.io, t); err != nil {
		s.io.Rollback()
		return err
	}
	if err := s.io.Commit(); err != nil {
		return s.fail(err) // it may be durable all the same: resume, as after a failed step
	}
	return nil
}
