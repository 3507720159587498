package pattern

import (
	"errors"
	"reflect"
	"testing"

	"github.com/demon-mining/demon/internal/blockseq"
	"github.com/demon-mining/demon/internal/focus"
)

// pairDiffer is a fake deviation function over blocks identified by their
// IDs: listed pairs are similar (p = 1), everything else dissimilar (p = 0).
type pairDiffer struct {
	similar map[[2]blockseq.ID]bool
	failOn  blockseq.ID
	calls   int
}

func newPairDiffer(pairs ...[2]blockseq.ID) *pairDiffer {
	m := make(map[[2]blockseq.ID]bool)
	for _, p := range pairs {
		if p[0] > p[1] {
			p[0], p[1] = p[1], p[0]
		}
		m[p] = true
	}
	return &pairDiffer{similar: m}
}

func (d *pairDiffer) Deviation(a, b blockseq.ID) (focus.Deviation, error) {
	d.calls++
	if d.failOn != 0 && (a == d.failOn || b == d.failOn) {
		return focus.Deviation{}, errors.New("injected failure")
	}
	if a > b {
		a, b = b, a
	}
	if d.similar[[2]blockseq.ID{a, b}] {
		return focus.Deviation{Score: 0, PValue: 1}, nil
	}
	return focus.Deviation{Score: 1, PValue: 0}, nil
}

func addAll(t *testing.T, d *Detector[blockseq.ID], n int) {
	t.Helper()
	for id := blockseq.ID(1); id <= blockseq.ID(n); id++ {
		if _, err := d.AddBlock(id, id); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPaperExample replays the Section 4 example: among D1..D4 the similar
// pairs are (1,2), (1,3), (1,4), (2,4); then {D1, D2, D4} is compact while
// {D1, D2, D3} and {D1, D4} are not.
func TestPaperExample(t *testing.T) {
	pd := newPairDiffer(
		[2]blockseq.ID{1, 2}, [2]blockseq.ID{1, 3},
		[2]blockseq.ID{1, 4}, [2]blockseq.ID{2, 4},
	)
	d, err := New[blockseq.ID](pd, 0.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	addAll(t, d, 4)

	want := [][]blockseq.ID{{1, 2, 4}, {2, 4}, {3}, {4}}
	if got := d.Sequences(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Sequences = %v, want %v", got, want)
	}
	// Maximal drops {2,4} ⊂ {1,2,4} and {4} ⊂ {1,2,4}.
	wantMax := [][]blockseq.ID{{1, 2, 4}, {3}}
	if got := d.Maximal(); !reflect.DeepEqual(got, wantMax) {
		t.Fatalf("Maximal = %v, want %v", got, wantMax)
	}
}

// TestCompactnessInvariant checks Definition 4.1 on random similarity
// structures: every maintained sequence is pairwise similar, and no skipped
// block between a sequence's first and last members is similar to all
// earlier members of the sequence.
func TestCompactnessInvariant(t *testing.T) {
	// A fixed pseudo-random similarity structure over 12 blocks.
	var pairs [][2]blockseq.ID
	for a := blockseq.ID(1); a <= 12; a++ {
		for b := a + 1; b <= 12; b++ {
			if (int(a)*7+int(b)*13)%3 != 0 {
				pairs = append(pairs, [2]blockseq.ID{a, b})
			}
		}
	}
	pd := newPairDiffer(pairs...)
	d, err := New[blockseq.ID](pd, 0.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	addAll(t, d, 12)

	similar := func(a, b blockseq.ID) bool {
		dev, err := pd.Deviation(a, b)
		if err != nil {
			t.Fatal(err)
		}
		return dev.PValue >= 0.05
	}
	for _, seq := range d.Sequences() {
		// (1) pairwise similar.
		for i := 0; i < len(seq); i++ {
			for j := i + 1; j < len(seq); j++ {
				if !similar(seq[i], seq[j]) {
					t.Fatalf("sequence %v not pairwise similar at (%d, %d)", seq, seq[i], seq[j])
				}
			}
		}
		// (2) no holes.
		member := make(map[blockseq.ID]bool, len(seq))
		for _, id := range seq {
			member[id] = true
		}
		for id := seq[0] + 1; id < seq[len(seq)-1]; id++ {
			if member[id] {
				continue
			}
			simToAllEarlier := true
			for _, m := range seq {
				if m >= id {
					break
				}
				if !similar(m, id) {
					simToAllEarlier = false
					break
				}
			}
			if simToAllEarlier {
				t.Fatalf("sequence %v has a hole at %d", seq, id)
			}
		}
	}
}

func TestDeviationMatrixCached(t *testing.T) {
	pd := newPairDiffer([2]blockseq.ID{1, 2})
	d, err := New[blockseq.ID](pd, 0.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	addAll(t, d, 5)
	// Exactly C(5,2) = 10 deviations: each pair computed once.
	if pd.calls != 10 {
		t.Fatalf("deviation calls = %d, want 10", pd.calls)
	}
	dev, ok := d.Similarity(1, 2)
	if !ok || dev.PValue != 1 {
		t.Fatalf("Similarity(1,2) = %+v, %v", dev, ok)
	}
	dev, ok = d.Similarity(2, 1) // symmetric lookup
	if !ok || dev.PValue != 1 {
		t.Fatalf("Similarity(2,1) = %+v, %v", dev, ok)
	}
	if _, ok := d.Similarity(1, 99); ok {
		t.Fatal("Similarity of unknown block reported ok")
	}
	if pd.calls != 10 {
		t.Fatal("Similarity lookups recomputed deviations")
	}
}

func TestAddBlockStats(t *testing.T) {
	pd := newPairDiffer([2]blockseq.ID{1, 2}, [2]blockseq.ID{1, 3})
	d, err := New[blockseq.ID](pd, 0.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := d.AddBlock(1, 1)
	if st.Deviations != 0 {
		t.Fatalf("first block deviations = %d", st.Deviations)
	}
	st, _ = d.AddBlock(2, 2)
	if st.Deviations != 1 || st.SimilarTo != 1 || st.Extended != 1 {
		t.Fatalf("second block stats = %+v", st)
	}
	st, _ = d.AddBlock(3, 3)
	if st.Deviations != 2 || st.SimilarTo != 1 {
		t.Fatalf("third block stats = %+v", st)
	}
}

func TestOutOfOrderRejected(t *testing.T) {
	d, err := New[blockseq.ID](newPairDiffer(), 0.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddBlock(2, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddBlock(1, 1); err == nil {
		t.Fatal("accepted out-of-order block")
	}
	if _, err := d.AddBlock(2, 2); err == nil {
		t.Fatal("accepted duplicate block")
	}
}

func TestDifferErrorPropagates(t *testing.T) {
	pd := newPairDiffer()
	pd.failOn = 2
	d, err := New[blockseq.ID](pd, 0.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddBlock(1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddBlock(2, 2); err == nil {
		t.Fatal("differ failure not propagated")
	}
}

func TestConstructorValidation(t *testing.T) {
	if _, err := New[blockseq.ID](nil, 0.05, 0); err == nil {
		t.Error("accepted nil differ")
	}
	if _, err := New[blockseq.ID](newPairDiffer(), 0, 0); err == nil {
		t.Error("accepted α = 0")
	}
	if _, err := New[blockseq.ID](newPairDiffer(), 1, 0); err == nil {
		t.Error("accepted α = 1")
	}
	if _, err := New[blockseq.ID](newPairDiffer(), 0.05, -1); err == nil {
		t.Error("accepted negative window")
	}
}

func TestWindowedDetection(t *testing.T) {
	// All blocks pairwise similar; with window 3 only the last 3 blocks may
	// appear in any sequence.
	var pairs [][2]blockseq.ID
	for a := blockseq.ID(1); a <= 6; a++ {
		for b := a + 1; b <= 6; b++ {
			pairs = append(pairs, [2]blockseq.ID{a, b})
		}
	}
	pd := newPairDiffer(pairs...)
	d, err := New[blockseq.ID](pd, 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	addAll(t, d, 6)
	for _, seq := range d.Sequences() {
		for _, id := range seq {
			if id < 4 {
				t.Fatalf("sequence %v contains expired block %d", seq, id)
			}
		}
	}
	max := d.Maximal()
	if len(max) != 1 || !reflect.DeepEqual(max[0], []blockseq.ID{4, 5, 6}) {
		t.Fatalf("Maximal = %v, want [[4 5 6]]", max)
	}
	// Windowed detection computes at most window-1 deviations per block:
	// 0+1+2+2+2+2 = 9.
	if pd.calls != 9 {
		t.Fatalf("deviation calls = %d, want 9", pd.calls)
	}
	// Blocks a window or more apart were never compared; closer pairs keep
	// their cached deviation, expired or not.
	for _, pair := range [][2]blockseq.ID{{1, 4}, {6, 3}, {1, 6}} {
		if dev, ok := d.Similarity(pair[0], pair[1]); ok {
			t.Errorf("Similarity%v = %+v, ok; want never computed", pair, dev)
		}
	}
	for _, pair := range [][2]blockseq.ID{{1, 3}, {4, 6}, {6, 5}} {
		if dev, ok := d.Similarity(pair[0], pair[1]); !ok || dev.PValue != 1 {
			t.Errorf("Similarity%v = %+v, %v; want the cached p = 1", pair, dev, ok)
		}
	}
}

func TestT(t *testing.T) {
	d, _ := New[blockseq.ID](newPairDiffer(), 0.05, 0)
	if d.T() != 0 {
		t.Fatalf("empty T = %d", d.T())
	}
	addAll(t, d, 3)
	if d.T() != 3 {
		t.Fatalf("T = %d", d.T())
	}
}

func TestCyclicSubsequence(t *testing.T) {
	// The paper's example: from compact ⟨D1, D3, D4, D5, D7⟩ derive the
	// cyclic ⟨D1, D3, D5, D7⟩.
	seq := []blockseq.ID{1, 3, 4, 5, 7}
	got := CyclicSubsequence(seq, 2)
	want := []blockseq.ID{1, 3, 5, 7}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("CyclicSubsequence = %v, want %v", got, want)
	}
	if CyclicSubsequence(seq, 10) != nil {
		t.Fatal("period 10 should yield nil")
	}
	if CyclicSubsequence(nil, 2) != nil {
		t.Fatal("empty sequence should yield nil")
	}
	if CyclicSubsequence(seq, 0) != nil {
		t.Fatal("period 0 should yield nil")
	}
}
