package diskio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Codec helpers shared by the on-disk formats of transactions, TID-lists and
// point blocks. All formats are little-endian and varint-based so that the
// byte counts reported by Store.Stats track the information content of the
// data (sorted identifier lists are delta-encoded, which is what makes a
// TID-list an order of magnitude smaller than the transactions it indexes).

// ErrCorrupt is wrapped by all decode errors.
var ErrCorrupt = errors.New("diskio: corrupt encoding")

// AppendUvarint appends x to buf in unsigned varint encoding.
func AppendUvarint(buf []byte, x uint64) []byte {
	return binary.AppendUvarint(buf, x)
}

// ReadUvarint decodes one uvarint from buf, returning the value and the
// remaining bytes.
func ReadUvarint(buf []byte) (uint64, []byte, error) {
	x, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: bad uvarint", ErrCorrupt)
	}
	return x, buf[n:], nil
}

// AppendSortedInts delta-encodes a strictly increasing slice of non-negative
// integers: the count, the first value, then successive gaps. It panics if
// the slice is not strictly increasing or contains negatives, because every
// caller constructs these lists in arrival order.
func AppendSortedInts(buf []byte, xs []int) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(xs)))
	prev := -1
	for _, x := range xs {
		if x <= prev {
			panic(fmt.Sprintf("diskio: AppendSortedInts input not strictly increasing at %d after %d", x, prev))
		}
		buf = binary.AppendUvarint(buf, uint64(x-prev))
		prev = x
	}
	return buf
}

// ReadSortedInts decodes a slice written by AppendSortedInts, returning the
// values and the remaining bytes.
func ReadSortedInts(buf []byte) ([]int, []byte, error) {
	return ReadSortedIntsAppend(nil, buf)
}

// ReadSortedIntsAppend is ReadSortedInts appending the values to dst, so one
// slab can take list after list. It returns the extended slice and the
// remaining bytes; on error it returns dst as it came, and dst[:len(dst)] is
// never written either way.
func ReadSortedIntsAppend(dst []int, buf []byte) ([]int, []byte, error) {
	n, buf, err := ReadUvarint(buf)
	if err != nil {
		return dst, nil, err
	}
	if n > uint64(len(buf))+1 {
		// Each element needs at least one byte; cheap corruption guard
		// before allocating.
		return dst, nil, fmt.Errorf("%w: implausible list length %d", ErrCorrupt, n)
	}
	xs := slices.Grow(dst, int(n))
	prev := -1
	for range n {
		// Gaps of one and two bytes — values under 16,384 apart — inline.
		switch {
		case len(buf) >= 1 && buf[0] < 0x80:
			prev += int(buf[0])
			buf = buf[1:]
		case len(buf) >= 2 && buf[1] < 0x80:
			prev += int(buf[0]&0x7f) | int(buf[1])<<7
			buf = buf[2:]
		default:
			gap, rest, err := ReadUvarint(buf)
			if err != nil {
				return dst, nil, err
			}
			buf = rest
			prev += int(gap)
		}
		xs = append(xs, prev)
	}
	return xs, buf, nil
}

// AppendInts encodes an arbitrary (not necessarily sorted) slice of
// non-negative integers: count then raw uvarints.
func AppendInts(buf []byte, xs []int) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(xs)))
	for _, x := range xs {
		if x < 0 {
			panic("diskio: AppendInts negative value")
		}
		buf = binary.AppendUvarint(buf, uint64(x))
	}
	return buf
}

// ReadInts decodes a slice written by AppendInts.
func ReadInts(buf []byte) ([]int, []byte, error) {
	n, buf, err := ReadUvarint(buf)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(buf))+1 {
		return nil, nil, fmt.Errorf("%w: implausible list length %d", ErrCorrupt, n)
	}
	xs := make([]int, n)
	for i := range xs {
		x, rest, err := ReadUvarint(buf)
		if err != nil {
			return nil, nil, err
		}
		buf = rest
		xs[i] = int(x)
	}
	return xs, buf, nil
}

// AppendFloat64s encodes a float64 slice: count then IEEE-754 bits.
func AppendFloat64s(buf []byte, xs []float64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(xs)))
	for _, x := range xs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
	}
	return buf
}

// ReadFloat64s decodes a slice written by AppendFloat64s.
func ReadFloat64s(buf []byte) ([]float64, []byte, error) {
	n, buf, err := ReadUvarint(buf)
	if err != nil {
		return nil, nil, err
	}
	if uint64(len(buf)) < n*8 {
		return nil, nil, fmt.Errorf("%w: short float64 list", ErrCorrupt)
	}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf))
		buf = buf[8:]
	}
	return xs, buf, nil
}
