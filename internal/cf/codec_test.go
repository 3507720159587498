package cf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"github.com/demon-mining/demon/internal/allocbound"
	"github.com/demon-mining/demon/internal/diskio"
)

func buildTestTree(t testing.TB, cfg TreeConfig, n int, seed int64) *Tree {
	t.Helper()
	tree, err := NewTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		p := Point{rng.NormFloat64(), rng.NormFloat64() + float64(i%4)*5}
		if err := tree.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	return tree
}

func TestTreeCodecRoundTrip(t *testing.T) {
	cfg := TreeConfig{Branching: 3, LeafEntries: 4, MaxLeafEntriesTotal: 16}
	tree := buildTestTree(t, cfg, 200, 7)
	enc := tree.Encode()
	dec, err := DecodeTree(cfg, enc)
	if err != nil {
		t.Fatal(err)
	}
	// The decoded tree is bit-for-bit the encoded one.
	if !bytes.Equal(dec.Encode(), enc) {
		t.Fatal("re-encoding a decoded tree changed the bytes")
	}
	if dec.NumPoints() != tree.NumPoints() || dec.NumSubClusters() != tree.NumSubClusters() ||
		dec.Threshold() != tree.Threshold() || dec.Rebuilds() != tree.Rebuilds() {
		t.Fatalf("decoded counters diverge: %d/%d points, %d/%d subclusters",
			dec.NumPoints(), tree.NumPoints(), dec.NumSubClusters(), tree.NumSubClusters())
	}
	// And behaves identically under further insertions.
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 150; i++ {
		p := Point{rng.NormFloat64(), rng.NormFloat64()}
		if err := tree.Insert(p); err != nil {
			t.Fatal(err)
		}
		if err := dec.Insert(append(Point(nil), p...)); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(dec.Encode(), tree.Encode()) {
		t.Fatal("decoded tree diverges from original under further insertions")
	}
}

func TestTreeCodecRoundTripEmpty(t *testing.T) {
	cfg := DefaultTreeConfig()
	tree, err := NewTree(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeTree(cfg, tree.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.Insert(Point{1, 2}); err != nil {
		t.Fatal(err)
	}
	if dec.NumPoints() != 1 {
		t.Fatalf("points = %d", dec.NumPoints())
	}
}

func TestDecodeTreeRejectsDamage(t *testing.T) {
	cfg := TreeConfig{Branching: 3, LeafEntries: 4, MaxLeafEntriesTotal: 16}
	enc := buildTestTree(t, cfg, 120, 11).Encode()

	if _, err := DecodeTree(cfg, append(bytes.Clone(enc), 0)); !errors.Is(err, diskio.ErrCorrupt) {
		t.Fatalf("trailing byte: err = %v", err)
	}
	for _, cut := range []int{0, 1, len(enc) / 2, len(enc) - 1} {
		if _, err := DecodeTree(cfg, enc[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded", cut)
		}
	}
	// A lying leaf-count header is rejected.
	bad := bytes.Clone(enc)
	// Field 2 is numLeafCFs; bump it (single-byte uvarint for small trees
	// stays single-byte when incremented below 0x7f).
	dimLen := 1 // dim is 2: one byte
	if bad[dimLen] >= 0x7e {
		t.Skip("leaf count not a small uvarint")
	}
	bad[dimLen]++
	if _, err := DecodeTree(cfg, bad); !errors.Is(err, diskio.ErrCorrupt) {
		t.Fatalf("leaf-count mismatch: err = %v", err)
	}
	// The outlier count after the five header fields is always zero.
	off := 0
	for range 5 {
		_, n := binary.Uvarint(enc[off:])
		off += n
	}
	bad = bytes.Clone(enc)
	bad[off] = 1
	if _, err := DecodeTree(cfg, bad); !errors.Is(err, diskio.ErrCorrupt) {
		t.Fatalf("nonzero outlier count: err = %v", err)
	}
}

// FuzzDecodeTree: arbitrary bytes end in an error or in a tree that encodes
// back to exactly those bytes, never in a panic, and never in an allocation
// out of proportion to the input — a count of 2^60 allocates nothing on its
// own say-so, and a node claims no more entries than the configuration fits.
func FuzzDecodeTree(f *testing.F) {
	cfg := TreeConfig{Branching: 3, LeafEntries: 4, MaxLeafEntriesTotal: 16}
	for _, n := range []int{0, 1, 5, 40, 120} {
		f.Add(buildTestTree(f, cfg, n, 11).Encode())
	}
	// Nested interior nodes, each claiming 127 entries and holding one.
	chain := []byte{1, 0, 0, 0, 0, 0}
	for range 50 {
		chain = append(chain, 0, 127, 0, 0, 0)
	}
	f.Add(chain)
	// A leaf whose one CF claims 2^61 coordinates: 8·2^61 overflows uint64.
	f.Add([]byte{1, 1, 0, 0, 1, 0, 1, 1, 1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var tree *Tree
		var err error
		// A node costs at least two bytes and holds at most four 48-byte
		// entries; a CF's coordinates cost their own bytes.
		allocbound.Check(t, len(data), func() { tree, err = DecodeTree(cfg, data) })
		if err != nil {
			if !errors.Is(err, diskio.ErrCorrupt) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if out := tree.Encode(); !bytes.Equal(out, data) {
			t.Fatalf("decoded tree encodes to different bytes:\n in %x\nout %x", data, out)
		}
	})
}
