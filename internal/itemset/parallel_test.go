package itemset

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// TestParallelCountMatchesSerial: sharded counting with vector-add merge
// equals the serial scan, and the tree's own keyed counts, for every worker
// count.
func TestParallelCountMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	txs := randomTxs(r, 400, 30, 5)
	for _, k := range []int{1, 2, 3} {
		cands := randomCands(r, 20, 30, k)
		cands = append(cands, cands[0]) // a candidate listed twice is counted at both positions
		tree := NewPrefixTree(cands)
		for _, tx := range txs {
			tree.CountTx(tx)
		}
		keyed := tree.Counts()
		want := make([]int, len(cands))
		for i, c := range cands {
			want[i] = keyed[c.Key()]
		}
		for _, w := range []int{0, 1, 2, 3, 7, runtime.GOMAXPROCS(0), 500} {
			if got := ParallelPrefixCount(cands, txs, w); !reflect.DeepEqual(got, want) {
				t.Fatalf("k=%d workers=%d: counts %v, want %v", k, w, got, want)
			}
		}
	}
}

func TestParallelCountEmpty(t *testing.T) {
	got := ParallelPrefixCount([]Itemset{NewItemset(1)}, nil, 8)
	if !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("empty scan counts = %v", got)
	}
}
