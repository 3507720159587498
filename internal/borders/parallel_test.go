package borders

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/demon-mining/demon/internal/blockseq"
	"github.com/demon-mining/demon/internal/itemset"
)

// TestParallelCounterMatchesSerial: sharded counting must equal serial
// counting exactly (additivity), for every strategy and worker count.
func TestParallelCounterMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	e := newEnv(t, "PT-Scan", 0.1)
	m := e.mt.Empty()
	var ids []blockseq.ID
	tid := 0
	for i := 1; i <= 6; i++ {
		blk := randomBlock(rng, blockseq.ID(i), tid, 60, 12, 4)
		tid += 60
		e.ingest(t, m, blk)
		if _, err := e.mt.AddBlock(m, blk); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, blk.ID)
	}
	var sets []itemset.Itemset
	for k := range m.Lattice().Border {
		sets = append(sets, k.Itemset())
		if len(sets) == 25 {
			break
		}
	}
	itemset.SortItemsets(sets)

	counters := []Counter{
		PTScan{Blocks: e.blocks},
		PTScan{Blocks: e.blocks, Workers: 3},
		ECUT{TIDs: e.tids},
		ECUTPlus{TIDs: e.tids},
	}
	var ref []int
	for _, inner := range counters {
		want, err := inner.Count(sets, ids)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = want
		} else if !reflect.DeepEqual(want, ref) {
			t.Fatalf("%s: counts diverge from the serial PT-Scan reference", inner.Name())
		}
		for _, workers := range []int{0, 1, 2, 3, 8, 100} {
			pc := ParallelCounter{Inner: inner, Workers: workers}
			got, err := pc.Count(sets, ids)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", inner.Name(), workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s workers=%d: parallel counts diverge", inner.Name(), workers)
			}
		}
	}
}

// TestParallelCounterInMaintenance: a maintainer driven by the parallel
// counter must produce the identical model.
func TestParallelCounterInMaintenance(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	serial := newEnv(t, "ECUT", 0.1)
	parallel := newEnv(t, "ECUT", 0.1)
	parallel.mt.Counter = ParallelCounter{Inner: parallel.mt.Counter, Workers: 4}

	ms := serial.mt.Empty()
	mp := parallel.mt.Empty()
	tid := 0
	for i := 1; i <= 4; i++ {
		blk := randomBlock(rng, blockseq.ID(i), tid, 70, 10, 4)
		tid += 70
		serial.ingest(t, ms, blk)
		parallel.ingest(t, mp, blk)
		if _, err := serial.mt.AddBlock(ms, blk); err != nil {
			t.Fatal(err)
		}
		if _, err := parallel.mt.AddBlock(mp, blk); err != nil {
			t.Fatal(err)
		}
		latticesMatch(t, "parallel", mp.Lattice(), ms.Lattice())
	}
}

// TestMaintainerWorkersDeterministic: the sharded detection-phase scan must
// yield the identical model for every worker count.
func TestMaintainerWorkersDeterministic(t *testing.T) {
	for _, workers := range []int{0, 2, 3, 8} {
		rng := rand.New(rand.NewSource(82))
		serial := newEnv(t, "PT-Scan", 0.1)
		parallel := newEnv(t, "PT-Scan", 0.1)
		serial.mt.Workers = 1
		parallel.mt.Workers = workers

		ms := serial.mt.Empty()
		mp := parallel.mt.Empty()
		tid := 0
		for i := 1; i <= 4; i++ {
			blk := randomBlock(rng, blockseq.ID(i), tid, 70, 10, 4)
			tid += 70
			serial.ingest(t, ms, blk)
			parallel.ingest(t, mp, blk)
			if _, err := serial.mt.AddBlock(ms, blk); err != nil {
				t.Fatal(err)
			}
			if _, err := parallel.mt.AddBlock(mp, blk); err != nil {
				t.Fatal(err)
			}
			latticesMatch(t, "maintainer-workers", mp.Lattice(), ms.Lattice())
			checkIndex(t, "maintainer-workers", mp) // every shard's detection vector back to zero
		}
		if _, err := serial.mt.DeleteBlock(ms, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := parallel.mt.DeleteBlock(mp, 1); err != nil {
			t.Fatal(err)
		}
		latticesMatch(t, "maintainer-workers-delete", mp.Lattice(), ms.Lattice())
		checkIndex(t, "maintainer-workers-delete", mp)
	}
}

type errCounter struct{}

func (errCounter) Name() string { return "err" }
func (errCounter) Count([]itemset.Itemset, []blockseq.ID) ([]int, error) {
	return nil, errors.New("boom")
}

func TestParallelCounterPropagatesErrors(t *testing.T) {
	pc := ParallelCounter{Inner: errCounter{}, Workers: 3}
	if _, err := pc.Count([]itemset.Itemset{itemset.NewItemset(1)}, []blockseq.ID{1, 2, 3, 4}); err == nil {
		t.Fatal("shard error not propagated")
	}
	// The wrapper reports the inner name unchanged so obs counters keep one
	// stable name regardless of the worker count.
	if got := pc.Name(); got != "err" {
		t.Fatalf("Name = %q", got)
	}
}

// shardErrCounter fails on every shard with an error naming the shard's
// first block, and stalls the lowest shard so later shards finish first —
// the returned error must still be the lowest shard's.
type shardErrCounter struct{ firstBlock blockseq.ID }

func (shardErrCounter) Name() string { return "shard-err" }
func (c shardErrCounter) Count(_ []itemset.Itemset, blocks []blockseq.ID) ([]int, error) {
	if len(blocks) > 0 && blocks[0] == c.firstBlock {
		time.Sleep(2 * time.Millisecond)
	}
	return nil, fmt.Errorf("first block %d", blocks[0])
}

// TestParallelCounterDeterministicError: when several shards fail, the error
// of the lowest-index shard is reported, deterministically, even when that
// shard is the slowest to finish.
func TestParallelCounterDeterministicError(t *testing.T) {
	blocks := []blockseq.ID{10, 20, 30, 40, 50, 60}
	pc := ParallelCounter{Inner: shardErrCounter{firstBlock: 10}, Workers: 3}
	for trial := 0; trial < 20; trial++ {
		_, err := pc.Count([]itemset.Itemset{itemset.NewItemset(1)}, blocks)
		if err == nil {
			t.Fatal("shard errors not propagated")
		}
		want := "borders: parallel shard 0: first block 10"
		if err.Error() != want {
			t.Fatalf("trial %d: error %q, want %q", trial, err.Error(), want)
		}
	}
}

// spyCounter records how many Count calls it receives; used to check the
// no-blocks fast path delegates exactly once, serially.
type spyCounter struct {
	calls int
}

func (*spyCounter) Name() string { return "spy" }
func (c *spyCounter) Count(sets []itemset.Itemset, blocks []blockseq.ID) ([]int, error) {
	c.calls++ // unsynchronized on purpose: -race flags any concurrent call
	return make([]int, len(sets)), nil
}

// TestParallelCounterEmptyBlocksNoSpawn: with zero blocks the counter
// delegates serially (a single inner call, no goroutines — the unsynchronized
// spy would trip -race otherwise) and still returns zeroed counts.
func TestParallelCounterEmptyBlocksNoSpawn(t *testing.T) {
	spy := &spyCounter{}
	pc := ParallelCounter{Inner: spy, Workers: 8}
	sets := []itemset.Itemset{itemset.NewItemset(1), itemset.NewItemset(2)}
	counts, err := pc.Count(sets, nil)
	if err != nil {
		t.Fatal(err)
	}
	if spy.calls != 1 {
		t.Fatalf("inner Count called %d times, want 1", spy.calls)
	}
	if !reflect.DeepEqual(counts, []int{0, 0}) {
		t.Fatalf("counts = %v", counts)
	}
}
