package cli

import (
	"context"
	"fmt"

	demon "github.com/demon-mining/demon"
)

// StoreFlags is the crash-safety flag block of the commands that feed block
// files to a resident model (demon-miner, demon-cluster).
type StoreFlags struct {
	Dir             string // -store
	Backend         string // -store-backend
	Resume          bool   // -resume
	CheckpointEvery int    // -checkpoint-every
	Scrub           bool   // -scrub
}

// StoreFlags adds -store, -store-backend, -resume, -checkpoint-every and
// -scrub to fs.
func (fs *FlagSet) StoreFlags() *StoreFlags {
	f := &StoreFlags{}
	fs.StringVar(&f.Dir, "store", "", "keep state in a crash-safe on-disk store: a directory, or a store URL like kvfile:state.kv?cache=16mb")
	fs.StringVar(&f.Backend, "store-backend", "", "backend of a bare-directory -store: file (default) or kvfile")
	fs.BoolVar(&f.Resume, "resume", false, "restore the last checkpoint from -store and skip already-ingested block files")
	fs.IntVar(&f.CheckpointEvery, "checkpoint-every", 0, "checkpoint automatically every N blocks (requires -store)")
	fs.BoolVar(&f.Scrub, "scrub", false, "verify every record checksum in -store before mining, quarantining corrupt ones")
	return f
}

// ScrubOnly reports whether the flags ask for a store audit, which needs no
// block files.
func (f StoreFlags) ScrubOnly() bool { return f.Scrub && f.Dir != "" }

// Open builds the durable on-disk stack -store names (a directory resolved
// through -store-backend, or a full store URL passed through); with -scrub it
// verifies every record first and prints the report. Without -store it
// returns nil, after rejecting the flags that need one. Pair with
// demon.CloseStore, which accepts nil.
func (f StoreFlags) Open() (demon.Store, error) {
	if f.Dir == "" {
		switch {
		case f.Resume:
			return nil, fmt.Errorf("-resume requires -store")
		case f.CheckpointEvery > 0:
			return nil, fmt.Errorf("-checkpoint-every requires -store")
		case f.Scrub:
			return nil, fmt.Errorf("-scrub requires -store")
		case f.Backend != "":
			return nil, fmt.Errorf("-store-backend requires -store")
		}
		return nil, nil
	}
	url, err := demon.DirStoreURL(f.Backend, f.Dir)
	if err != nil {
		return nil, err
	}
	store, err := demon.OpenStore(url)
	if err != nil {
		return nil, err
	}
	if f.Scrub {
		rep, err := demon.ScrubStore(store, "")
		if err != nil {
			demon.CloseStore(store)
			return nil, err
		}
		fmt.Printf("scrub: %d records checked, %d quarantined\n", rep.Checked, len(rep.Quarantined))
		for _, k := range rep.Quarantined {
			fmt.Printf("scrub: quarantined %s\n", k)
		}
	}
	return store, nil
}

// Model is the resident model Feed drives, over blocks of type B.
type Model[B any] struct {
	// T is the identifier of the latest ingested block.
	T func() demon.BlockID
	// Read loads one block file.
	Read func(path string) (B, error)
	// AddBlock ingests a block and prints its progress line.
	AddBlock func(B) error
	// Checkpoint persists the model; nil for a model that keeps no store.
	Checkpoint func() error
}

// Feed ingests the block files in order and reports whether it reached the
// end of them. Files the restored checkpoint already covers are skipped, so
// a resumed run must name the files in the original order. ctx is checked
// only between blocks — a signal mid-block lets the block's atomic store
// transaction finish — and an interrupted run returns false after the final
// checkpoint, having said how to continue.
func Feed[B any](ctx context.Context, f StoreFlags, files []string, m Model[B]) (finished bool, err error) {
	if done := int(m.T()); done > 0 {
		done = min(done, len(files))
		fmt.Printf("resumed at block %d: skipping %d already-ingested file(s)\n", m.T(), done)
		files = files[done:]
	}
	finished = true
	for _, path := range files {
		if ctx.Err() != nil {
			finished = false
			break
		}
		blk, err := m.Read(path)
		if err != nil {
			return false, err
		}
		if err := m.AddBlock(blk); err != nil {
			return false, err
		}
	}
	durable := f.Dir != "" && m.Checkpoint != nil
	if durable {
		if err := m.Checkpoint(); err != nil {
			return false, err
		}
		fmt.Printf("checkpointed at block %d\n", m.T())
	}
	switch {
	case finished:
	case durable:
		fmt.Printf("interrupted after block %d; rerun with -resume to continue\n", m.T())
	default:
		fmt.Printf("interrupted after block %d (no -store: progress not saved)\n", m.T())
	}
	return finished, nil
}
