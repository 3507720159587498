package borders

import (
	"errors"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"github.com/demon-mining/demon/internal/diskio"
	"github.com/demon-mining/demon/internal/itemset"
)

func TestModelEncodeDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	e := newEnv(t, "PT-Scan", 0.1)
	m := e.mt.Empty()
	blk := randomBlock(rng, 1, 0, 80, 10, 4)
	e.ingest(t, m, blk)
	if _, err := e.mt.AddBlock(m, blk); err != nil {
		t.Fatal(err)
	}

	dec, err := DecodeModel(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	latticesMatch(t, "codec", dec.Lattice(), m.Lattice())
	if dec.Lattice().MinSupport != m.Lattice().MinSupport {
		t.Fatalf("κ = %v, want %v", dec.Lattice().MinSupport, m.Lattice().MinSupport)
	}
	if dec.Lattice().Passes != m.Lattice().Passes {
		t.Fatalf("passes = %d, want %d", dec.Lattice().Passes, m.Lattice().Passes)
	}
	if len(dec.Blocks) != 1 || dec.Blocks[0] != 1 {
		t.Fatalf("blocks = %v", dec.Blocks)
	}

	// The decoded model must continue to maintain correctly.
	blk2 := randomBlock(rng, 2, blk.Len(), 60, 10, 4)
	e.ingest(t, dec, blk2)
	if _, err := e.mt.AddBlock(dec, blk2); err != nil {
		t.Fatal(err)
	}
	if err := dec.Lattice().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeModelCorrupt(t *testing.T) {
	enc := FromLattice(family(10, 0.2, map[string]int{"1": 5}, nil)).Encode()
	if _, err := DecodeModel(enc[:len(enc)-1]); err == nil {
		t.Error("accepted truncated model")
	}
	if _, err := DecodeModel(nil); err == nil {
		t.Error("accepted empty model")
	}
	if _, err := DecodeModel(append(enc, 0xFF)); err == nil {
		t.Error("accepted trailing garbage")
	}
}

func TestModelStore(t *testing.T) {
	store := diskio.NewMemStore()
	ms := NewModelStore(store, "ckpt")
	m := FromLattice(family(4, 0.1, map[string]int{"2": 3, "3": 4, "2 3": 3}, nil), 1, 2)

	if err := ms.Save(3, m); err != nil {
		t.Fatal(err)
	}
	got, err := ms.Load(3)
	if err != nil {
		t.Fatal(err)
	}
	if got.Lattice().Frequent[itemset.NewItemset(2, 3).Key()] != 3 || len(got.Blocks) != 2 {
		t.Fatal("loaded model lost counts or blocks")
	}
	if _, err := ms.Load(99); err == nil {
		t.Error("loaded missing slot")
	}
}

func TestModelStoreSlots(t *testing.T) {
	store := diskio.NewMemStore()
	ms := NewModelStore(store, "ckpt")
	m := (&Maintainer{MinSupport: 0.1}).Empty()
	for _, slot := range []int{2, 0, 5} {
		if err := ms.Save(slot, m); err != nil {
			t.Fatal(err)
		}
	}
	// Unrelated keys under the prefix are not slots.
	if err := store.Put("ckpt/model-extra", nil); err != nil {
		t.Fatal(err)
	}
	if err := store.Put("ckpt/meta", nil); err != nil {
		t.Fatal(err)
	}
	slots, err := ms.Slots()
	if err != nil {
		t.Fatal(err)
	}
	if len(slots) != 3 || slots[0] != 0 || slots[1] != 2 || slots[2] != 5 {
		t.Fatalf("Slots = %v, want [0 2 5]", slots)
	}
}

// family builds a lattice over n transactions from "1 2"-style itemsets.
func family(n int, minsup float64, frequent, border map[string]int) *itemset.Lattice {
	l := itemset.NewLattice(minsup)
	l.N = n
	for into, sets := range map[*map[itemset.Key]int]map[string]int{&l.Frequent: frequent, &l.Border: border} {
		for spec, count := range sets {
			var x []itemset.Item
			for _, f := range strings.Fields(spec) {
				it, _ := strconv.Atoi(f)
				x = append(x, itemset.Item(it))
			}
			(*into)[itemset.NewItemset(x...).Key()] = count
		}
	}
	return l
}

// TestDecodeModelRejectsInconsistentFamily: payloads that parse but do not
// describe a model — the lattice codec writes them happily — are corrupt.
// Before the tree was the model they decoded, and the index built over them
// silently disagreed with the lattice.
func TestDecodeModelRejectsInconsistentFamily(t *testing.T) {
	blocks := diskio.AppendInts(nil, []int{1})
	ok := family(10, 0.3, map[string]int{"1": 6, "2": 5, "1 2": 4}, map[string]int{"3": 2})
	if _, err := DecodeModel(append(ok.Encode(), blocks...)); err != nil {
		t.Fatalf("consistent family rejected: %v", err)
	}
	for name, l := range map[string]*itemset.Lattice{
		"frequent pair without its items": family(10, 0.3, map[string]int{"1 2": 4}, nil),
		"frequent pair without one item":  family(10, 0.3, map[string]int{"1": 6, "1 2": 4}, nil),
		"frequent set with a border item": family(10, 0.3, map[string]int{"1": 6, "1 2": 4}, map[string]int{"2": 2}),
		"border pair over a border item":  family(10, 0.3, map[string]int{"1": 6}, map[string]int{"2": 2, "1 2": 1}),
		"set in both sections":            family(10, 0.3, map[string]int{"1": 6}, map[string]int{"1": 2}),
		"frequent count below MinCount":   family(10, 0.3, map[string]int{"1": 2}, nil),
		"border count at MinCount":        family(10, 0.3, nil, map[string]int{"1": 3}),
		"threshold outside (0, 1)":        family(10, 1.5, nil, nil),
	} {
		_, err := DecodeModel(append(l.Encode(), blocks...))
		if !errors.Is(err, diskio.ErrCorrupt) {
			t.Errorf("%s: got %v, want an error wrapping ErrCorrupt", name, err)
		}
	}

	// Hand-written sections, which no encoder produces: header N=10 κ=0.3,
	// then sets as (size, gaps from -1..., count).
	header := itemset.AppendLatticeHeader(nil, 10, 0.3, 0)
	for name, sections := range map[string][]byte{
		"set listed twice":  {2, 1, 2, 6, 1, 2, 6, 0},
		"sets out of order": {2, 1, 3, 6, 1, 2, 6, 0},
		"repeated item":     {1, 2, 2, 0, 6, 0},
		"empty set":         {1, 0, 6, 0},
		"overlong varint":   {1, 1, 0x82, 0x00, 6, 0},
	} {
		_, err := DecodeModel(append(append(append([]byte{}, header...), sections...), blocks...))
		if !errors.Is(err, diskio.ErrCorrupt) {
			t.Errorf("%s: got %v, want an error wrapping ErrCorrupt", name, err)
		}
	}
	if _, err := DecodeModel(append(append(append([]byte{}, header...), 2, 1, 2, 6, 1, 3, 6, 0), blocks...)); err != nil {
		t.Fatalf("hand-written consistent sections rejected: %v", err)
	}
}
