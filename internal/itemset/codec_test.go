package itemset

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/demon-mining/demon/internal/diskio"
)

func randomLattice(rng *rand.Rand) *Lattice {
	l := NewLattice(0.01 + rng.Float64()*0.4)
	l.N = rng.Intn(100000)
	l.Passes = rng.Intn(10)
	for i := 0; i < rng.Intn(40); i++ {
		size := 1 + rng.Intn(4)
		items := make([]Item, size)
		for j := range items {
			items[j] = Item(rng.Intn(500))
		}
		l.Frequent[NewItemset(items...).Key()] = rng.Intn(1000)
	}
	for i := 0; i < rng.Intn(40); i++ {
		size := 1 + rng.Intn(4)
		items := make([]Item, size)
		for j := range items {
			items[j] = Item(rng.Intn(500))
		}
		k := NewItemset(items...).Key()
		if _, dup := l.Frequent[k]; !dup {
			l.Border[k] = rng.Intn(1000)
		}
	}
	return l
}

func latticeDeepEqual(t *testing.T, got, want *Lattice) {
	t.Helper()
	if got.N != want.N || got.MinSupport != want.MinSupport || got.Passes != want.Passes {
		t.Fatalf("header mismatch: %+v vs %+v", got, want)
	}
	if len(got.Frequent) != len(want.Frequent) || len(got.Border) != len(want.Border) {
		t.Fatalf("map sizes: %d/%d vs %d/%d",
			len(got.Frequent), len(got.Border), len(want.Frequent), len(want.Border))
	}
	for k, c := range want.Frequent {
		if got.Frequent[k] != c {
			t.Fatalf("frequent %v: %d vs %d", k.Itemset(), got.Frequent[k], c)
		}
	}
	for k, c := range want.Border {
		if got.Border[k] != c {
			t.Fatalf("border %v: %d vs %d", k.Itemset(), got.Border[k], c)
		}
	}
}

func TestLatticeCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for trial := 0; trial < 30; trial++ {
		l := randomLattice(rng)
		dec, rest, err := DecodeLattice(l.Encode())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(rest) != 0 {
			t.Fatalf("trial %d: %d trailing bytes", trial, len(rest))
		}
		latticeDeepEqual(t, dec, l)
	}
}

func TestLatticeCodecEmpty(t *testing.T) {
	l := NewLattice(0.5)
	dec, rest, err := DecodeLattice(l.Encode())
	if err != nil || len(rest) != 0 {
		t.Fatalf("err=%v rest=%d", err, len(rest))
	}
	latticeDeepEqual(t, dec, l)
}

func TestLatticeCodecDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	l := randomLattice(rng)
	a, b := l.Encode(), l.Encode()
	if string(a) != string(b) {
		t.Fatal("Encode is nondeterministic across calls")
	}
	// A clone (different map iteration order) must encode identically.
	if string(l.Clone().Encode()) != string(a) {
		t.Fatal("Encode depends on map construction order")
	}
}

func TestLatticeCodecCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	l := randomLattice(rng)
	enc := l.Encode()
	if _, _, err := DecodeLattice(nil); err == nil {
		t.Error("accepted empty input")
	}
	if _, _, err := DecodeLattice(enc[:len(enc)/2]); err == nil {
		t.Error("accepted truncated input")
	}
	// Implausible map size.
	bad := append([]byte{}, enc[:3]...)
	bad = append(bad, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F)
	if _, _, err := DecodeLattice(bad); err == nil {
		t.Error("accepted implausible map size")
	}
}

func TestLatticeCodecTrailingBytesReturned(t *testing.T) {
	l := NewLattice(0.1)
	l.N = 3
	enc := append(l.Encode(), 0xAB, 0xCD)
	_, rest, err := DecodeLattice(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 2 || rest[0] != 0xAB {
		t.Fatalf("rest = %v", rest)
	}
}

// TestLatticeCodecRejectsUnwritableSections: bytes Encode cannot have
// written — sets out of SortItemsets order or repeated, a repeated or
// negative item, an empty set — are corrupt, so what decodes re-encodes to
// itself.
func TestLatticeCodecRejectsUnwritableSections(t *testing.T) {
	header := AppendLatticeHeader(nil, 10, 0.3, 1)
	// Sets are (size, item gaps from -1..., count); two sections follow the
	// header.
	for name, sections := range map[string][]byte{
		"sets out of order":          {2, 1, 3, 6, 1, 2, 6, 0},
		"set listed twice":           {0, 2, 1, 2, 1, 1, 2, 1},
		"prefix after its extension": {2, 2, 2, 1, 6, 1, 2, 6, 0},
		"repeated item":              {1, 2, 2, 0, 6, 0},
		"empty set":                  {1, 0, 6, 0},
		"item beyond int32":          {1, 1, 0x81, 0x80, 0x80, 0x80, 0x08, 6, 0},
		"overlong varint":            {1, 1, 0x82, 0x00, 6, 0},
	} {
		if _, _, err := DecodeLattice(append(append([]byte{}, header...), sections...)); !errors.Is(err, diskio.ErrCorrupt) {
			t.Errorf("%s: got %v, want an error wrapping ErrCorrupt", name, err)
		}
	}
	ok := append(append([]byte{}, header...), 2, 1, 2, 6, 2, 2, 1, 6, 0)
	l, rest, err := DecodeLattice(ok)
	if err != nil || len(rest) != 0 || string(l.Encode()) != string(ok) {
		t.Fatalf("writable sections: err=%v rest=%d, re-encoded %x, want %x", err, len(rest), l.Encode(), ok)
	}
}
