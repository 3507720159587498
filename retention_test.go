package demon

// Retention: a window miner's store holds what a window or a restart from
// its checkpoint can read, and nothing older; an unrestricted miner's holds
// every block.

import (
	"maps"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/demon-mining/demon/internal/diskio/kvfile"
)

// retentionSpec is a Quest stream whose 40-transaction blocks keep ~200
// itemsets frequent at 5 % over a window of four, pairs among them.
const retentionSpec = "1M.5L.0.1I.0.05pats.3plen"

// blockPrefixes are the key spaces that hold one block's data.
var blockPrefixes = []string{"txblock/", "tid/", "tid2/", "tid2idx/"}

// keyBlock parses the block id out of a key of one of blockPrefixes.
func keyBlock(t *testing.T, key string) BlockID {
	t.Helper()
	rest := key[strings.IndexByte(key, '/')+1:]
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	id, err := strconv.Atoi(rest)
	if err != nil {
		t.Fatalf("key %q names no block: %v", key, err)
	}
	return BlockID(id)
}

// TestWindowRetention feeds a window miner (w = 4, ECUT+) 50·w blocks, with
// a restart between two checkpoints, and a checkpoint every 10 blocks:
// automatic (N = 10) on mem and on kvfile, and, with N = 0, taken on
// request. After every step, the stored blocks are exactly those from the
// bound to t — no key of any block below it left behind — and the miner
// caches at most w+10+1 blocks' pair indexes. The bound is
// min(T_ckpt−w+1, t−w−N+2), its second term dropped for N = 0. At the end
// the compacted kvfile log holds at most w+N+1 blocks' worth and the
// checkpoint.
func TestWindowRetention(t *testing.T) {
	const w, gap = 4, 10
	const restartAt = 5*w + 3 // resumes from the checkpoint at 20
	rows := questBlocks(t, retentionSpec, 50*w, 40)
	for _, tc := range []struct {
		name  string
		every int // AutoCheckpointEvery; 0 checkpoints by request every gap blocks
	}{{"mem", gap}, {"kvfile", gap}, {"mem-on-request", 0}} {
		t.Run(tc.name, func(t *testing.T) {
			var store Store = NewMemStore()
			var kv *kvfile.Store
			if tc.name == "kvfile" {
				var err error
				if kv, err = kvfile.Open(t.TempDir()+"/store.kv", kvfile.Options{}); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { kv.Close() })
				store = kv
			}
			cfg := ItemsetWindowMinerConfig{MinSupport: 0.05, Strategy: ECUTPlus, WindowSize: w,
				Store: store, AutoCheckpointEvery: tc.every}
			m, err := NewItemsetWindowMiner(cfg)
			if err != nil {
				t.Fatal(err)
			}
			restarted, floor := false, BlockID(1)
			for int(m.T()) < len(rows) {
				if m.T() == restartAt && !restarted {
					if m, err = ResumeItemsetWindowMiner(cfg); err != nil {
						t.Fatal(err)
					}
					restarted = true
					continue
				}
				ckpt, id := m.CheckpointT(), m.T()+1
				if _, err := m.AddBlock(rows[id-1]); err != nil {
					t.Fatal(err)
				}
				from := ckpt - w + 1
				if tc.every > 0 {
					from = min(from, id-BlockID(w+tc.every)+2)
				} else if id%gap == 0 {
					if err := m.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
				// Re-fed after the restart, a step may compute a lower bound
				// than one the first run reached; what went stays gone.
				floor = max(floor, from)
				checkRetained(t, store, floor, id)
				if n := m.tids.CachedPairIndexes(); n > w+gap+1 {
					t.Fatalf("block %d: %d pair indexes cached, want at most %d", id, n, w+gap+1)
				}
			}
			if keys, _ := store.Keys("tid2/"); len(keys) == 0 {
				t.Fatal("ECUT+ materialized no pair list: the pair keys went untested")
			}
			if kv == nil {
				return
			}
			if err := kv.Compact(); err != nil {
				t.Fatal(err)
			}
			dump := dumpStoreBytes(t, kv)
			// A record costs its key, its value and at most 16 bytes of
			// framing.
			perBlock := make(map[BlockID]int64)
			var ckptBytes, largest int64
			for key, val := range dump {
				n := int64(len(key) + len(val) + 16)
				if strings.HasPrefix(key, "checkpoint/") {
					ckptBytes += n
					continue
				}
				perBlock[keyBlock(t, key)] += n
			}
			for _, n := range perBlock {
				largest = max(largest, n)
			}
			if limit := (w+gap+1)*largest + ckptBytes; kv.LogBytes() > limit {
				t.Fatalf("compacted log holds %d bytes, more than %d blocks of at most %d bytes and the %d-byte checkpoint",
					kv.LogBytes(), w+gap+1, largest, ckptBytes)
			}
		})
	}
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
				m, err := ResumeItemsetWindowMiner(cfg(s))
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
// block from..to. Blocks above to are those a restart is re-feeding.
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

// TestUnrestrictedMinerKeepsEveryBlock: the BORDERS update over D[1, t]
// counts in every block, so an ItemsetMiner deletes none.
func TestUnrestrictedMinerKeepsEveryBlock(t *testing.T) {
	rows := questBlocks(t, retentionSpec, 50, 40)
	store := NewMemStore()
	m, err := NewItemsetMiner(ItemsetMinerConfig{MinSupport: 0.05, Strategy: ECUTPlus, Store: store,
		AutoCheckpointEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if _, err := m.AddBlock(r); err != nil {
			t.Fatal(err)
		}
	}
	checkRetained(t, store, 1, BlockID(len(rows)))
}
