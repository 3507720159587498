package diskio

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestSortedIntsRoundTrip(t *testing.T) {
	cases := [][]int{
		nil,
		{0},
		{5},
		{0, 1, 2, 3},
		{10, 100, 1000, 1000000},
	}
	for _, xs := range cases {
		buf := AppendSortedInts(nil, xs)
		got, rest, err := ReadSortedInts(buf)
		if err != nil {
			t.Fatalf("ReadSortedInts(%v): %v", xs, err)
		}
		if len(rest) != 0 {
			t.Fatalf("trailing bytes after %v", xs)
		}
		if len(xs) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, xs) {
			t.Fatalf("round trip %v -> %v", xs, got)
		}
	}
}

func TestSortedIntsPanicsOnUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AppendSortedInts accepted unsorted input")
		}
	}()
	AppendSortedInts(nil, []int{3, 2})
}

func TestSortedIntsPanicsOnDuplicate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AppendSortedInts accepted duplicate")
		}
	}()
	AppendSortedInts(nil, []int{2, 2})
}

// Property: encode/decode of random strictly-increasing lists is lossless and
// delta encoding never exceeds the raw encoding size.
func TestSortedIntsProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw % 64)
		set := make(map[int]bool, n)
		for len(set) < n {
			set[rng.Intn(1<<20)] = true
		}
		xs := make([]int, 0, n)
		for x := range set {
			xs = append(xs, x)
		}
		sort.Ints(xs)
		buf := AppendSortedInts(nil, xs)
		got, rest, err := ReadSortedInts(buf)
		if err != nil || len(rest) != 0 {
			return false
		}
		if len(got) != len(xs) {
			return false
		}
		for i := range xs {
			if got[i] != xs[i] {
				return false
			}
		}
		raw := AppendInts(nil, xs)
		return len(buf) <= len(raw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntsRoundTrip(t *testing.T) {
	xs := []int{5, 0, 5, 1 << 30}
	buf := AppendInts(nil, xs)
	got, rest, err := ReadInts(buf)
	if err != nil || len(rest) != 0 {
		t.Fatalf("ReadInts err=%v rest=%d", err, len(rest))
	}
	if !reflect.DeepEqual(got, xs) {
		t.Fatalf("round trip %v -> %v", xs, got)
	}
}

func TestFloat64sRoundTrip(t *testing.T) {
	xs := []float64{0, -1.5, math.Pi, math.MaxFloat64, math.SmallestNonzeroFloat64}
	buf := AppendFloat64s(nil, xs)
	got, rest, err := ReadFloat64s(buf)
	if err != nil || len(rest) != 0 {
		t.Fatalf("ReadFloat64s err=%v rest=%d", err, len(rest))
	}
	if !reflect.DeepEqual(got, xs) {
		t.Fatalf("round trip %v -> %v", xs, got)
	}
}

func TestDecodeCorrupt(t *testing.T) {
	// Length claims more elements than bytes available.
	if _, _, err := ReadSortedInts([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x7F}); err == nil {
		t.Error("ReadSortedInts accepted implausible length")
	}
	if _, _, err := ReadInts([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x7F}); err == nil {
		t.Error("ReadInts accepted implausible length")
	}
	if _, _, err := ReadFloat64s([]byte{3, 0, 0}); err == nil {
		t.Error("ReadFloat64s accepted short buffer")
	}
	if _, _, err := ReadUvarint(nil); err == nil {
		t.Error("ReadUvarint accepted empty buffer")
	}
	// Truncated list body.
	buf := AppendSortedInts(nil, []int{1, 2, 3})
	if _, _, err := ReadSortedInts(buf[:len(buf)-1]); err == nil {
		t.Error("ReadSortedInts accepted truncated body")
	}
}

func TestMultipleValuesInOneBuffer(t *testing.T) {
	buf := AppendSortedInts(nil, []int{1, 5, 9})
	buf = AppendFloat64s(buf, []float64{2.5})
	buf = AppendUvarint(buf, 42)

	ints, buf, err := ReadSortedInts(buf)
	if err != nil {
		t.Fatal(err)
	}
	floats, buf, err := ReadFloat64s(buf)
	if err != nil {
		t.Fatal(err)
	}
	x, buf, err := ReadUvarint(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != 0 || x != 42 || floats[0] != 2.5 || ints[2] != 9 {
		t.Fatalf("sequential decode mismatch: %v %v %d rest=%d", ints, floats, x, len(buf))
	}
}

// readSortedIntsRef is the plain decoder: one ReadUvarint per value into an
// exactly-sized slice, no fast path.
func readSortedIntsRef(buf []byte) ([]int, []byte, error) {
	n, buf, err := ReadUvarint(buf)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(buf))+1 {
		return nil, nil, ErrCorrupt
	}
	xs := make([]int, n)
	prev := -1
	for i := range xs {
		gap, rest, err := ReadUvarint(buf)
		if err != nil {
			return nil, nil, err
		}
		buf = rest
		prev += int(gap)
		xs[i] = prev
	}
	return xs, buf, nil
}

// FuzzSortedIntsCodec: the appending decoder never panics on hostile bytes,
// never writes the entries dst already holds, and agrees with ReadSortedInts
// and with the plain decoder on every input; a strictly increasing list built
// from the input round-trips through AppendSortedInts and back.
func FuzzSortedIntsCodec(f *testing.F) {
	f.Add(AppendSortedInts(nil, []int{0, 1, 2, 200, 70000}), uint8(7))
	f.Add(AppendSortedInts(nil, nil), uint8(0))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x7F}, uint8(3))
	f.Add([]byte{3, 1, 0x80}, uint8(12))
	f.Add(append(AppendSortedInts(nil, []int{5}), 9, 9), uint8(40))
	f.Fuzz(func(t *testing.T, data []byte, pre uint8) {
		// dst holds pre%5 sentinels, with spare capacity sometimes, so
		// appends both reallocate and land in place.
		dst := make([]int, pre%5, int(pre%5)+int(pre/5)%8)
		for i := range dst {
			dst[i] = -1000 - i
		}
		held := slices.Clone(dst)

		got, rest, err := ReadSortedIntsAppend(dst, data)
		if !slices.Equal(dst, held) {
			t.Fatalf("dst[:%d] written: %v, was %v", len(dst), dst, held)
		}
		want, wantRest, wantErr := ReadSortedInts(data)
		ref, refRest, refErr := readSortedIntsRef(data)
		if (err == nil) != (wantErr == nil) || (err == nil) != (refErr == nil) {
			t.Fatalf("errors disagree: append %v, ReadSortedInts %v, plain %v", err, wantErr, refErr)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped decode error: %v", err)
			}
			if !slices.Equal(got, held) {
				t.Fatalf("failed decode returned %v, want dst %v", got, held)
			}
			return
		}
		if !slices.Equal(got[:len(held)], held) || !slices.Equal(got[len(held):], want) || !slices.Equal(want, ref) {
			t.Fatalf("decodes disagree: append %v, ReadSortedInts %v, plain %v", got, want, ref)
		}
		if !bytes.Equal(rest, wantRest) || !bytes.Equal(rest, refRest) {
			t.Fatalf("remaining bytes disagree: %d, %d, %d", len(rest), len(wantRest), len(refRest))
		}

		xs := make([]int, len(data))
		prev := -1
		for i, b := range data {
			prev += 1 + int(b)*int(b)*int(b) // gaps from 1 to past three varint bytes
			xs[i] = prev
		}
		enc := append(AppendSortedInts(nil, xs), data...)
		back, rest, err := ReadSortedIntsAppend(dst, enc)
		if err != nil || !slices.Equal(back[:len(held)], held) || !slices.Equal(back[len(held):], xs) || !bytes.Equal(rest, data) {
			t.Fatalf("round trip of %d values: err %v, got %d values, %d bytes left", len(xs), err, len(back)-len(held), len(rest))
		}
	})
}
