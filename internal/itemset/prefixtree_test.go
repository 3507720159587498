package itemset

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// farItem lies past the root's dense table, so sets holding it take the
// root's search path.
const farItem = Item(denseRootLimit + 5)

// fuzzSets decodes fuzz bytes into canonical itemsets over a universe of mod
// items: each byte contributes an item, a zero byte ends a set. Item 11 is
// relabelled farItem. Empty sets are dropped; duplicates are kept.
func fuzzSets(data []byte, mod int) []Itemset {
	var out []Itemset
	var cur []Item
	flush := func() {
		if len(cur) > 0 {
			out = append(out, NewItemset(cur...))
			cur = nil
		}
	}
	for _, b := range data {
		if b == 0 {
			flush()
			continue
		}
		it := Item(int(b) % mod)
		if it == 11 {
			it = farItem
		}
		cur = append(cur, it)
	}
	flush()
	return out
}

// naiveTree is the reference the flat tree is fuzzed against: a plain set of
// candidates, counted with SubsetOf.
type naiveTree map[Key]Itemset

func (n naiveTree) counts(txs []Transaction) map[Key]int {
	out := make(map[Key]int, len(n))
	for k, c := range n {
		out[k] = 0
		for _, tx := range txs {
			if c.SubsetOf(tx.Items) {
				out[k]++
			}
		}
	}
	return out
}

func hasPrefix(x, prefix Itemset) bool {
	return len(x) >= len(prefix) && x[:len(prefix)].Equal(prefix)
}

func checkTreeAgainst(t *testing.T, ctx string, tree *PrefixTree, ref naiveTree, txs []Transaction) {
	t.Helper()
	if tree.Size() != len(ref) {
		t.Fatalf("%s: Size = %d, want %d", ctx, tree.Size(), len(ref))
	}
	tree.Reset()
	for _, tx := range txs {
		tree.CountTx(tx)
	}
	got, want := tree.Counts(), ref.counts(txs)
	if len(got) != len(want) {
		t.Fatalf("%s: %d counts, want %d", ctx, len(got), len(want))
	}
	for k, c := range want {
		if gc, ok := got[k]; !ok || gc != c {
			t.Fatalf("%s: count(%v) = %d (present %v), want %d", ctx, k.Itemset(), gc, ok, c)
		}
	}

	// Walk visits exactly the candidates, each at its node, in SortItemsets
	// order.
	inOrder := make([]Itemset, 0, len(ref))
	for _, c := range ref {
		inOrder = append(inOrder, c)
	}
	SortItemsets(inOrder)
	visited := 0
	tree.Walk(func(n int32, x Itemset) {
		if visited >= len(inOrder) || !x.Equal(inOrder[visited]) || tree.Lookup(x, -1) != n {
			t.Fatalf("%s: Walk step %d is %v at node %d, candidates in order are %v", ctx, visited, x, n, inOrder)
		}
		visited++
	})
	if visited != len(inOrder) {
		t.Fatalf("%s: Walk visited %d of %d candidates", ctx, visited, len(inOrder))
	}

	// Sharded: three vectors over disjoint transaction ranges, summed, must
	// equal the serial count at every candidate's node.
	shards := make([][]int, 3)
	for s := range shards {
		shards[s] = make([]int, tree.Cap())
		for _, tx := range txs[s*len(txs)/3 : (s+1)*len(txs)/3] {
			tree.CountInto(shards[s], tx)
		}
	}
	for k, c := range ref {
		n := tree.Lookup(c, -1)
		if n < 0 {
			t.Fatalf("%s: Lookup(%v) misses a candidate", ctx, c)
		}
		if !tree.Itemset(n, nil).Equal(c) {
			t.Fatalf("%s: node %d of %v reads back as %v", ctx, n, c, tree.Itemset(n, nil))
		}
		if sum := shards[0][n] + shards[1][n] + shards[2][n]; sum != want[k] {
			t.Fatalf("%s: sharded count(%v) = %d, want %d", ctx, c, sum, want[k])
		}
		// Every (len-1)-subset lookup agrees with the reference.
		for skip := range c {
			_, in := ref[c.Without(skip).Key()]
			if got := tree.Lookup(c, skip) >= 0; got != in {
				t.Fatalf("%s: Lookup(%v without index %d) found = %v, want %v", ctx, c, skip, got, in)
			}
		}
		// Supersets lists exactly the candidates one item larger.
		var wantSup []string
		for _, d := range ref {
			if len(d) == len(c)+1 && c.SubsetOf(d) {
				wantSup = append(wantSup, d.String())
			}
		}
		var gotSup []string
		for _, m := range tree.Supersets(c, nil) {
			gotSup = append(gotSup, tree.Itemset(m, nil).String())
		}
		sort.Strings(wantSup)
		sort.Strings(gotSup)
		if len(gotSup) != len(wantSup) {
			t.Fatalf("%s: Supersets(%v) = %v, want %v", ctx, c, gotSup, wantSup)
		}
		for i := range wantSup {
			if gotSup[i] != wantSup[i] {
				t.Fatalf("%s: Supersets(%v) = %v, want %v", ctx, c, gotSup, wantSup)
			}
		}
	}
}

// FuzzPrefixTreeCount checks the flat prefix tree against naive SubsetOf
// counting: duplicate candidates, the empty tree, transaction items the tree
// has never seen (and, through farItem, the root's search path beside its
// dense table), sharded count vectors summed against the serial count,
// subset lookups and superset enumeration — then again after removing some
// candidates with their extensions and inserting new ones into the reused
// nodes, and again after clearing that tree, free nodes and reused ranges
// and all, and inserting the candidates and the edits once more.
func FuzzPrefixTreeCount(f *testing.F) {
	f.Add([]byte{1, 2, 0, 1, 2, 3, 0, 2, 0, 1, 2, 0}, []byte{1, 2, 3, 0, 2, 3, 4, 0, 1, 3, 0, 5}, []byte{1, 0, 4, 5})
	f.Add([]byte{}, []byte{7, 7, 7, 0, 0, 1}, []byte{})
	f.Add([]byte{9, 0, 9, 10, 0, 9, 10, 11, 0, 10, 0}, []byte{9, 10, 11, 12, 0, 9, 11}, []byte{9, 0, 9, 10, 12})
	f.Fuzz(func(t *testing.T, candBytes, txBytes, editBytes []byte) {
		if len(candBytes) > 256 || len(txBytes) > 1024 || len(editBytes) > 64 {
			return
		}
		// Candidates draw from 12 items, transactions from 16: items 12–15
		// are absent from the tree.
		cands := fuzzSets(candBytes, 12)
		var txs []Transaction
		for i, x := range fuzzSets(txBytes, 16) {
			txs = append(txs, Transaction{TID: i, Items: x})
		}

		tree := NewPrefixTree(cands)
		ref := make(naiveTree)
		for _, c := range cands {
			ref[c.Key()] = c
		}
		checkTreeAgainst(t, "built", tree, ref, txs)

		// Edits: each set is removed, with everything extending it, when it
		// is a candidate, and inserted when it is not.
		edit := func() {
			for _, x := range fuzzSets(editBytes, 12) {
				if n := tree.Lookup(x, -1); n >= 0 {
					removed := tree.Remove(n, nil)
					for k, c := range ref {
						if hasPrefix(c, x) {
							delete(ref, k)
							removed = removed[:len(removed)-1]
						}
					}
					if len(removed) != 0 {
						t.Fatalf("Remove(%v) reported %d candidates the reference does not have", x, len(removed))
					}
				} else {
					if _, added := tree.Insert(x); !added {
						t.Fatalf("Insert(%v) of a missing candidate reports it present", x)
					}
					ref[x.Key()] = x
				}
			}
		}
		edit()
		checkTreeAgainst(t, "edited", tree, ref, txs)

		// Cleared, the tree takes the candidates at the node numbers a new
		// tree gives them.
		tree.Clear()
		clear(ref)
		checkTreeAgainst(t, "cleared", tree, ref, txs)
		built := NewPrefixTree(nil)
		for _, c := range cands {
			n, added := tree.Insert(c)
			if m, _ := built.Insert(c); n != m {
				t.Fatalf("Insert(%v) into the cleared tree gives node %d, into a new tree %d", c, n, m)
			}
			if _, dup := ref[c.Key()]; dup == added {
				t.Fatalf("Insert(%v) into the cleared tree reports added = %v", c, added)
			}
			ref[c.Key()] = c
		}
		checkTreeAgainst(t, "cleared and rebuilt", tree, ref, txs)
		edit()
		checkTreeAgainst(t, "cleared, rebuilt and edited", tree, ref, txs)
	})
}

// TestParallelCountMatchesSerial: PrefixCount's positional counts equal the
// tree's own keyed counts.
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
		if got := PrefixCount(cands, txs); !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d: counts %v, want %v", k, got, want)
		}
	}
}

func TestParallelCountEmpty(t *testing.T) {
	got := PrefixCount([]Itemset{NewItemset(1)}, nil)
	if !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("empty scan counts = %v", got)
	}
}
