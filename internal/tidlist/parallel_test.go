package tidlist

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"github.com/demon-mining/demon/internal/diskio"
	"github.com/demon-mining/demon/internal/itemset"
)

func randomRows(rng *rand.Rand, n, universe, avgLen int) [][]itemset.Item {
	rows := make([][]itemset.Item, n)
	for i := range rows {
		m := 1 + rng.Intn(2*avgLen)
		rows[i] = make([]itemset.Item, m)
		for j := range rows[i] {
			rows[i][j] = itemset.Item(rng.Intn(universe))
		}
	}
	return rows
}

// storeBytes snapshots every key/value of a diskio store.
func storeBytes(t *testing.T, s diskio.Store) map[string][]byte {
	t.Helper()
	keys, err := s.Keys("")
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(keys))
	for _, k := range keys {
		v, err := s.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		out[k] = v
	}
	return out
}

func sameStoreBytes(t *testing.T, label string, got, want map[string][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d keys, want %d", label, len(got), len(want))
	}
	for k, v := range want {
		g, ok := got[k]
		if !ok {
			t.Fatalf("%s: key %q missing", label, k)
		}
		if !bytes.Equal(g, v) {
			t.Fatalf("%s: key %q bytes differ", label, k)
		}
	}
}

// TestMaterializeParallelByteIdentical: budgeted pair materialization
// stores exactly the pairs the budget rule picks, each as its plain list,
// and SetWorkers has no effect — the stored TID-list bytes, the chosen pairs
// and the entries used are the same at every worker count.
func TestMaterializeParallelByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	rows := randomRows(rng, 300, 25, 6)
	blk := makeBlock(1, 100, rows)

	// Pairs ranked by support over the block, as the ECUT+ heuristic feeds
	// them; include enough that the budget skips some.
	var pairs []itemset.Itemset
	for a := 0; a < 8; a++ {
		for b := a + 1; b < 8; b++ {
			pairs = append(pairs, itemset.NewItemset(itemset.Item(a), itemset.Item(b)))
		}
	}

	run := func(workers int) (map[string][]byte, []itemset.Itemset, int64) {
		mem := diskio.NewMemStore()
		s := NewStore(mem)
		s.SetWorkers(workers)
		if err := s.Materialize(blk); err != nil {
			t.Fatal(err)
		}
		chosen, used, err := s.MaterializePairs(blk, pairs, 400)
		if err != nil {
			t.Fatal(err)
		}
		return storeBytes(t, mem), chosen, used
	}

	wantBytes, wantChosen, wantUsed := run(1)
	if len(wantBytes) == 0 {
		t.Fatal("serial run stored nothing")
	}
	// The budget rule by hand: in pair order, each pair whose list still
	// fits is stored, with its list; the others are not.
	var used int64
	var chosen []itemset.Itemset
	want := map[uint64][]int{}
	for _, p := range pairs {
		var list []int
		for _, tx := range blk.Txs {
			if tx.Contains(p) {
				list = append(list, tx.TID)
			}
		}
		if used+int64(len(list)) > 400 {
			continue
		}
		used += int64(len(list))
		chosen = append(chosen, p)
		want[pairKeyOf(p[0], p[1])] = list
	}
	base, keys, tids, ends, err := decodeSegment(wantBytes[pairKey(blk.ID)], true)
	if err != nil || base != blk.FirstTID || len(keys) != len(want) {
		t.Fatalf("the pair segment: base %d, %d pairs, %v; want base %d, %d pairs", base, len(keys), err, blk.FirstTID, len(want))
	}
	start := 0
	for i, key := range keys {
		if list, ok := want[key]; !ok || !slices.Equal(tids[start:ends[i]], list) {
			t.Fatalf("pair %d-%d: stored %v, want the list %v (chosen: %v)", key>>32, uint32(key), tids[start:ends[i]], list, ok)
		}
		start = ends[i]
	}
	if used != wantUsed || len(chosen) != len(wantChosen) || len(chosen) == len(pairs) {
		t.Fatalf("used %d entries on %d of %d pairs, want %d on %d, some skipped",
			wantUsed, len(wantChosen), len(pairs), used, len(chosen))
	}
	for _, workers := range []int{0, 2, 3, 8, 100} {
		got, chosen, used := run(workers)
		if used != wantUsed {
			t.Fatalf("workers=%d: used %d entries, want %d", workers, used, wantUsed)
		}
		if len(chosen) != len(wantChosen) {
			t.Fatalf("workers=%d: chose %d pairs, want %d", workers, len(chosen), len(wantChosen))
		}
		for i := range chosen {
			if chosen[i].Key() != wantChosen[i].Key() {
				t.Fatalf("workers=%d: chosen[%d] = %v, want %v", workers, i, chosen[i], wantChosen[i])
			}
		}
		sameStoreBytes(t, "workers", got, wantBytes)
	}
}
