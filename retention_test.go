package demon

// Retention: a window miner's store holds what a window or a restart from
// its checkpoint can read, and nothing older (checked after every event of
// the simulation, simulate_test.go); here, the first step on a backlog.

import (
	"maps"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

// retentionSpec is a Quest stream whose 40-transaction blocks keep ~200
// itemsets frequent at 5 % over a window of four, pairs among them.
const retentionSpec = "1M.5L.0.1I.0.05pats.3plen"

// blockPrefixes are the key spaces that hold one block's data.
var blockPrefixes = []string{"txblock/", "tid/", "tid2/"}

// keyBlock parses the block id out of a key of one of blockPrefixes.
func keyBlock(t *testing.T, key string) BlockID {
	t.Helper()
	_, rest, _ := strings.Cut(key, "/")
	rest, _, _ = strings.Cut(rest, "/")
	id, err := strconv.Atoi(rest)
	if err != nil {
		t.Fatalf("key %q names no block: %v", key, err)
	}
	return BlockID(id)
}

// TestWindowResumeDropsHistory resumes a window store that holds every block
// of a long stream: one that a miner without retention wrote, and one with
// N = 0 whose only checkpoint came at its drain. The first step after the
// resume deletes the whole backlog below the bound, in its one transaction,
// and leaves the store a miner with retention from the start would have
// held. The log reports what that step costs against the next one.
func TestWindowResumeDropsHistory(t *testing.T) {
	const w, every, n = 4, 10, 120
	rows := questBlocks(t, retentionSpec, n+2, 40)
	for _, tc := range []struct {
		name  string
		every int
	}{{"without-retention", every}, {"drained-N0", 0}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := func(s Store) ItemsetWindowMinerConfig {
				return ItemsetWindowMinerConfig{MinSupport: 0.05, Strategy: ECUTPlus, WindowSize: w,
					Store: s, AutoCheckpointEvery: tc.every}
			}
			feed := func(m *ItemsetWindowMiner, upTo int, keepAll bool) time.Duration {
				t.Helper()
				var last time.Duration
				for int(m.T()) < upTo {
					if keepAll {
						m.oldest = math.MaxInt64 // nothing below it to expire
					}
					start := time.Now()
					if _, err := m.AddBlock(rows[m.T()]); err != nil {
						t.Fatal(err)
					}
					last = time.Since(start)
				}
				return last
			}
			old, golden := NewMemStore(), NewMemStore()
			for _, s := range []Store{old, golden} {
				m, err := NewItemsetWindowMiner(cfg(s))
				if err != nil {
					t.Fatal(err)
				}
				feed(m, n, s == old)
				if err := m.Checkpoint(); err != nil { // the drain
					t.Fatal(err)
				}
			}
			checkRetained(t, old, 1, n)

			for _, s := range []Store{old, golden} {
				m, err := NewItemsetWindowMiner(cfg(s))
				if err != nil {
					t.Fatal(err)
				}
				first := feed(m, n+1, false)
				next := feed(m, n+2, false)
				if s == old {
					t.Logf("first step after the resume %v, the next %v", first, next)
				}
			}
			from := BlockID(n - w + 1)
			if tc.every > 0 {
				from = min(from, BlockID(n+2-w-tc.every+2))
			}
			checkRetained(t, old, from, n+2)
			if got, want := dumpStoreBytes(t, old), dumpStoreBytes(t, golden); !maps.Equal(got, want) {
				t.Fatalf("the resumed store holds %d records, a miner with retention from the start %d",
					len(got), len(want))
			}
		})
	}
}

// checkRetained fails unless the store holds no block below from and every
// block from..to, under blockPrefixes. Blocks above to are those a restart
// is re-feeding.
func checkRetained(t *testing.T, store Store, from, to BlockID) {
	t.Helper()
	for _, prefix := range blockPrefixes {
		keys, err := store.Keys(prefix)
		if err != nil {
			t.Fatal(err)
		}
		held := 0
		for _, key := range keys {
			id := keyBlock(t, key)
			if id < from {
				t.Fatalf("block %d: %s survives below the bound %d", to, key, from)
			}
			if id <= to {
				held++
			}
		}
		if prefix == "txblock/" && held != int(to-from+1) {
			t.Fatalf("block %d: %d of blocks %d..%d stored", to, held, from, to)
		}
	}
}
