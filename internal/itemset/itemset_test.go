package itemset

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewItemsetCanonicalizes(t *testing.T) {
	s := NewItemset(5, 1, 3, 1, 5)
	want := Itemset{1, 3, 5}
	if !s.Equal(want) {
		t.Fatalf("NewItemset = %v, want %v", s, want)
	}
	if NewItemset() != nil {
		t.Fatal("empty NewItemset should be nil")
	}
}

func TestContains(t *testing.T) {
	s := NewItemset(2, 4, 6)
	for _, it := range []Item{2, 4, 6} {
		if !s.Contains(it) {
			t.Errorf("Contains(%d) = false", it)
		}
	}
	for _, it := range []Item{1, 3, 5, 7} {
		if s.Contains(it) {
			t.Errorf("Contains(%d) = true", it)
		}
	}
}

func TestSubsetOf(t *testing.T) {
	tests := []struct {
		a, b Itemset
		want bool
	}{
		{NewItemset(), NewItemset(1, 2), true},
		{NewItemset(1), NewItemset(1, 2), true},
		{NewItemset(2), NewItemset(1, 2), true},
		{NewItemset(1, 2), NewItemset(1, 2), true},
		{NewItemset(1, 3), NewItemset(1, 2), false},
		{NewItemset(1, 2, 3), NewItemset(1, 2), false},
		{NewItemset(0), NewItemset(1, 2), false},
	}
	for _, tc := range tests {
		if got := tc.a.SubsetOf(tc.b); got != tc.want {
			t.Errorf("%v ⊆ %v = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestUnion(t *testing.T) {
	got := NewItemset(1, 3).Union(NewItemset(2, 3, 5))
	want := Itemset{1, 2, 3, 5}
	if !got.Equal(want) {
		t.Fatalf("Union = %v, want %v", got, want)
	}
}

func TestWithout(t *testing.T) {
	s := NewItemset(1, 2, 3)
	if got := s.Without(1); !got.Equal(Itemset{1, 3}) {
		t.Fatalf("Without(1) = %v", got)
	}
	// Original unchanged.
	if !s.Equal(Itemset{1, 2, 3}) {
		t.Fatal("Without mutated receiver")
	}
}

func TestKeyRoundTrip(t *testing.T) {
	f := func(raw []uint16) bool {
		items := make([]Item, len(raw))
		for i, r := range raw {
			items[i] = Item(r)
		}
		s := NewItemset(items...)
		return s.Key().Itemset().Equal(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKeyUnique(t *testing.T) {
	// Varint encoding must not collide across different splits, e.g. {300}
	// vs {44, 2} style confusions.
	sets := []Itemset{
		NewItemset(300),
		NewItemset(44, 2),
		NewItemset(1, 2, 3),
		NewItemset(12, 3),
		NewItemset(1, 23),
	}
	seen := make(map[Key]Itemset)
	for _, s := range sets {
		k := s.Key()
		if prev, ok := seen[k]; ok {
			t.Fatalf("key collision between %v and %v", prev, s)
		}
		seen[k] = s
	}
}

func TestPrefixJoin(t *testing.T) {
	// The classic example: {1,2},{1,3},{2,3} join to {1,2,3} (from the
	// {1,2}+{1,3} pair); {2,3} shares no prefix with the others.
	sets := []Itemset{NewItemset(1, 2), NewItemset(1, 3), NewItemset(2, 3)}
	got := PrefixJoin(sets)
	if len(got) != 1 || !got[0].Equal(Itemset{1, 2, 3}) {
		t.Fatalf("PrefixJoin = %v, want [{1,2,3}]", got)
	}
	// Joining 1-itemsets yields all pairs.
	got = PrefixJoin([]Itemset{NewItemset(1), NewItemset(2), NewItemset(3)})
	if len(got) != 3 {
		t.Fatalf("PrefixJoin of 3 singletons gave %d pairs, want 3", len(got))
	}
	if PrefixJoin(nil) != nil {
		t.Fatal("PrefixJoin(nil) should be nil")
	}
}

func TestPruneByFrequent(t *testing.T) {
	freq := map[Key]bool{
		NewItemset(1, 2).Key(): true,
		NewItemset(1, 3).Key(): true,
		NewItemset(2, 3).Key(): true,
		NewItemset(1, 4).Key(): true,
	}
	cands := []Itemset{NewItemset(1, 2, 3), NewItemset(1, 2, 4)}
	got := PruneByFrequent(cands, freq)
	// {1,2,4} has subset {2,4} infrequent, so only {1,2,3} survives.
	if len(got) != 1 || !got[0].Equal(Itemset{1, 2, 3}) {
		t.Fatalf("PruneByFrequent = %v", got)
	}
}

// naiveCount counts candidates by brute-force containment checks.
func naiveCount(cands []Itemset, txs []Transaction) map[Key]int {
	out := make(map[Key]int, len(cands))
	for _, c := range cands {
		out[c.Key()] = 0
	}
	for _, tx := range txs {
		for _, c := range cands {
			if tx.Contains(c) {
				out[c.Key()]++
			}
		}
	}
	return out
}

func randomTxs(rng *rand.Rand, n, universe, avgLen int) []Transaction {
	txs := make([]Transaction, n)
	for i := range txs {
		m := 1 + rng.Intn(2*avgLen)
		items := make([]Item, m)
		for j := range items {
			items[j] = Item(rng.Intn(universe))
		}
		txs[i] = Transaction{TID: i, Items: NewItemset(items...)}
	}
	return txs
}

func randomCands(rng *rand.Rand, n, universe, size int) []Itemset {
	var out []Itemset
	seen := make(map[Key]bool)
	for len(out) < n {
		items := make([]Item, size)
		for j := range items {
			items[j] = Item(rng.Intn(universe))
		}
		c := NewItemset(items...)
		if len(c) != size || seen[c.Key()] {
			continue
		}
		seen[c.Key()] = true
		out = append(out, c)
	}
	return out
}

func TestPrefixTreeMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		txs := randomTxs(rng, 50, 20, 6)
		size := 1 + rng.Intn(3)
		cands := randomCands(rng, 15, 20, size)
		tree := NewPrefixTree(cands)
		for _, tx := range txs {
			tree.CountTx(tx)
		}
		want := naiveCount(cands, txs)
		got := tree.Counts()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: prefix tree counts diverge from naive", trial)
		}
	}
}

func TestPrefixTreeMixedSizes(t *testing.T) {
	cands := []Itemset{NewItemset(1), NewItemset(1, 2), NewItemset(1, 2, 3), NewItemset(4)}
	txs := []Transaction{
		{TID: 0, Items: NewItemset(1, 2, 3)},
		{TID: 1, Items: NewItemset(1, 2)},
		{TID: 2, Items: NewItemset(4, 5)},
	}
	tree := NewPrefixTree(cands)
	for _, tx := range txs {
		tree.CountTx(tx)
	}
	counts := tree.Counts()
	wants := map[string]int{"{1}": 2, "{1, 2}": 2, "{1, 2, 3}": 1, "{4}": 1}
	for _, c := range cands {
		if got := counts[c.Key()]; got != wants[c.String()] {
			t.Errorf("count(%v) = %d, want %d", c, got, wants[c.String()])
		}
	}
}

func TestPrefixTreeDedupAndReset(t *testing.T) {
	c := NewItemset(1, 2)
	tree := NewPrefixTree([]Itemset{c, c})
	if tree.Size() != 1 {
		t.Fatalf("Size = %d, want 1 after dedup", tree.Size())
	}
	tree.CountTx(Transaction{Items: NewItemset(1, 2, 3)})
	if tree.Counts()[c.Key()] != 1 {
		t.Fatal("count != 1")
	}
	tree.Reset()
	if tree.Counts()[c.Key()] != 0 {
		t.Fatal("Reset did not zero counts")
	}
}

// TestPrefixJoinMatchesNaive: the prefix join plus subset prune must produce
// exactly the (k+1)-itemsets all of whose k-subsets are in the input — the
// Apriori candidate-generation contract.
func TestPrefixJoinMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	for trial := 0; trial < 20; trial++ {
		k := 1 + rng.Intn(3)
		universe := 8
		// A random downward-closed-ish family of k-itemsets.
		var level []Itemset
		seen := make(map[Key]bool)
		for len(level) < 5+rng.Intn(10) {
			items := make([]Item, k)
			for j := range items {
				items[j] = Item(rng.Intn(universe))
			}
			c := NewItemset(items...)
			if len(c) != k || seen[c.Key()] {
				continue
			}
			seen[c.Key()] = true
			level = append(level, c)
		}

		got := PruneByFrequent(PrefixJoin(level), keysOf(level))
		gotKeys := make(map[Key]bool, len(got))
		for _, c := range got {
			gotKeys[c.Key()] = true
		}

		// Naive: enumerate all (k+1)-subsets of the universe and keep those
		// whose every k-subset is in the level.
		var want []Itemset
		var rec func(start Item, cur Itemset)
		rec = func(start Item, cur Itemset) {
			if len(cur) == k+1 {
				ok := true
				for i := range cur {
					if !seen[cur.Without(i).Key()] {
						ok = false
						break
					}
				}
				if ok {
					want = append(want, cur.Clone())
				}
				return
			}
			for it := start; int(it) < universe; it++ {
				rec(it+1, append(cur, it))
			}
		}
		rec(0, nil)

		if len(got) != len(want) {
			t.Fatalf("trial %d (k=%d): %d candidates, want %d", trial, k, len(got), len(want))
		}
		for _, c := range want {
			if !gotKeys[c.Key()] {
				t.Fatalf("trial %d: candidate %v missing", trial, c)
			}
		}
	}
}

func keysOf(sets []Itemset) map[Key]bool {
	m := make(map[Key]bool, len(sets))
	for _, s := range sets {
		m[s.Key()] = true
	}
	return m
}
