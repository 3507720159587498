package borders

import (
	"fmt"

	"github.com/demon-mining/demon/internal/blockseq"
	"github.com/demon-mining/demon/internal/itemset"
	"github.com/demon-mining/demon/internal/par"
)

// ParallelCounter wraps a Counter and shards the selected blocks across
// worker goroutines, adding up the per-shard count vectors. Support counts are
// additive over blocks (the Section 3.1.1 additivity property), so the
// result is exactly the serial count regardless of scheduling. The wrapped
// counter must be safe for concurrent Count calls on disjoint block sets —
// all counters in this package are, because the underlying stores are.
type ParallelCounter struct {
	// Inner is the counting strategy to shard.
	Inner Counter
	// Workers is the shard count; zero or negative selects GOMAXPROCS.
	Workers int
}

// Name implements Counter. It reports the inner counter's name unchanged so
// observability counters (borders.counted.<name>) keep one stable name
// regardless of the worker count.
func (c ParallelCounter) Name() string { return c.Inner.Name() }

// Count implements Counter. When several shards fail, the error of the
// lowest-index shard is returned — not whichever shard the scheduler
// happened to finish first — so error reporting is deterministic across
// runs and worker counts. With no blocks (or a single shard) the inner
// counter is called directly on the calling goroutine; no goroutine is
// spawned.
func (c ParallelCounter) Count(sets []itemset.Itemset, blocks []blockseq.ID) ([]int, error) {
	if len(blocks) == 0 {
		return c.Inner.Count(sets, blocks)
	}
	shards := par.Shards(len(blocks), c.Workers)
	if shards <= 1 {
		return c.Inner.Count(sets, blocks)
	}

	// Contiguous shards keep block locality.
	partial := make([][]int, shards)
	errs := make([]error, shards)
	par.Do(len(blocks), c.Workers, func(s, lo, hi int) {
		partial[s], errs[s] = c.Inner.Count(sets, blocks[lo:hi])
	})
	for s, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("borders: parallel shard %d: %w", s, err)
		}
	}

	total := partial[0]
	for _, counts := range partial[1:] {
		for i, c := range counts {
			total[i] += c
		}
	}
	return total, nil
}
