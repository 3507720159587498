package tidlist

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func sortedUnique(rng *rand.Rand, n, max int) List {
	set := make(map[int]bool)
	for len(set) < n {
		set[rng.Intn(max)] = true
	}
	out := make(List, 0, n)
	for x := range set {
		out = append(out, x)
	}
	sort.Ints(out)
	return out
}

func naiveIntersect(a, b List) List {
	inB := make(map[int]bool, len(b))
	for _, x := range b {
		inB[x] = true
	}
	var out List
	for _, x := range a {
		if inB[x] {
			out = append(out, x)
		}
	}
	return out
}

func TestIntersectBasic(t *testing.T) {
	a := List{1, 3, 5, 7}
	b := List{3, 4, 5, 8}
	got := Intersect(a, b)
	want := List{3, 5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Intersect = %v, want %v", got, want)
	}
	if got := Intersect(a, nil); got != nil {
		t.Fatalf("Intersect with empty = %v", got)
	}
	if got := IntersectCount(a, b); got != 2 {
		t.Fatalf("IntersectCount = %d, want 2", got)
	}
}

func TestIntersectProperty(t *testing.T) {
	f := func(seed int64, na, nb uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		a := sortedUnique(rng, int(na%50), 100)
		b := sortedUnique(rng, int(nb%50), 100)
		got := Intersect(a, b)
		want := naiveIntersect(a, b)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return IntersectCount(a, b) == len(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntersectManyCount(t *testing.T) {
	lists := []List{
		{1, 2, 3, 4, 5, 6},
		{2, 4, 6, 8},
		{4, 6, 10},
	}
	if got, _ := IntersectManyCount(lists, nil); got != 2 {
		t.Fatalf("IntersectManyCount = %d, want 2", got)
	}
	if got, _ := IntersectManyCount(nil, nil); got != 0 {
		t.Fatalf("IntersectManyCount(nil) = %d", got)
	}
	if got, _ := IntersectManyCount([]List{{1, 2}}, nil); got != 2 {
		t.Fatalf("IntersectManyCount single = %d", got)
	}
	if got, _ := IntersectManyCount([]List{{1}, nil, {1}}, nil); got != 0 {
		t.Fatalf("IntersectManyCount with empty list = %d", got)
	}
}

// Property: IntersectManyCount equals the size of the folded naive pairwise
// intersection for every k, with the scratch list carried from call to call
// as the counting kernels carry it, and it never writes to its inputs.
func TestIntersectManyCountProperty(t *testing.T) {
	var scratch List
	f := func(seed int64, k uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(k%5) + 1
		lists := make([]List, n)
		for i := range lists {
			lists[i] = sortedUnique(rng, rng.Intn(30), 60)
		}
		want := lists[0]
		for _, l := range lists[1:] {
			want = naiveIntersect(want, l)
		}
		before := make([]List, n)
		for i, l := range lists {
			before[i] = append(List(nil), l...)
		}
		arg := append([]List(nil), lists...)
		var got int
		got, scratch = IntersectManyCount(arg, scratch)
		for i, l := range lists {
			if !reflect.DeepEqual(append(List(nil), l...), before[i]) {
				return false
			}
		}
		return got == len(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: one pairCounter carried through a run of pairs — the shared list
// first, second, or neither; dense, sparse and offset TID ranges — counts
// what the sort-merge counts.
func TestPairCounterMatchesIntersectCount(t *testing.T) {
	var p pairCounter
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		max := []int{40, 400, 1 << 20}[rng.Intn(3)]
		lists := make([]List, 4)
		for i := range lists {
			lists[i] = sortedUnique(rng, 1+rng.Intn(30), max)
			for j := range lists[i] {
				lists[i][j] += 1000 * i // ranges that only partly overlap
			}
		}
		for range 12 {
			a, b := lists[rng.Intn(4)], lists[rng.Intn(4)]
			if p.count(a, b) != IntersectCount(a, b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnion(t *testing.T) {
	got := Union(List{1, 3, 5}, List{2, 3, 6})
	want := List{1, 2, 3, 5, 6}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Union = %v, want %v", got, want)
	}
}
