package itemset

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/demon-mining/demon/internal/diskio"
)

// The lattice format is a header — N, κ, pass count — then the frequent and
// the border section, each the number of its sets followed by (itemset,
// count) pairs in SortItemsets order. It supports the paper's Section 3.2.3
// design point that all but the current window model live on disk, and lets
// a miner checkpoint and resume. This file is the only place that knows it:
// Lattice and the BORDERS model, which holds the same family as a prefix
// tree, both go through AppendSection and ReadSection.

// Encode serializes the lattice.
func (l *Lattice) Encode() []byte {
	buf := AppendLatticeHeader(nil, l.N, l.MinSupport, l.Passes)
	buf = AppendSection(buf, len(l.Frequent), sortedCounts(l.Frequent))
	return AppendSection(buf, len(l.Border), sortedCounts(l.Border))
}

// sortedCounts returns a function that hands a count map's entries to emit in
// SortItemsets order.
func sortedCounts(m map[Key]int) func(emit func(Itemset, int)) {
	return func(emit func(Itemset, int)) {
		for _, x := range sortedSets(m) {
			emit(x, m[x.Key()])
		}
	}
}

// AppendLatticeHeader appends the format's header.
func AppendLatticeHeader(buf []byte, n int, minsup float64, passes int) []byte {
	buf = diskio.AppendUvarint(buf, uint64(n))
	buf = diskio.AppendUvarint(buf, math.Float64bits(minsup))
	return diskio.AppendUvarint(buf, uint64(passes))
}

// AppendSection appends one section: n, then each of the n sets that each
// emits, in SortItemsets order — its size, its items as gaps (the first from
// -1) — followed by its count.
func AppendSection(buf []byte, n int, each func(emit func(x Itemset, count int))) []byte {
	buf = diskio.AppendUvarint(buf, uint64(n))
	each(func(x Itemset, count int) {
		buf = diskio.AppendUvarint(buf, uint64(len(x)))
		prev := Item(-1)
		for _, it := range x {
			buf = diskio.AppendUvarint(buf, uint64(it-prev))
			prev = it
		}
		buf = diskio.AppendUvarint(buf, uint64(count))
	})
	return buf
}

// DecodeLattice reverses Lattice.Encode, returning the lattice and any
// trailing bytes.
func DecodeLattice(data []byte) (*Lattice, []byte, error) {
	l := NewLattice(0)
	var err error
	if l.N, l.MinSupport, l.Passes, data, err = ReadLatticeHeader(data); err != nil {
		return nil, nil, err
	}
	for _, m := range []map[Key]int{l.Frequent, l.Border} {
		data, err = ReadSection(data, func(x Itemset, count int) error {
			m[x.Key()] = count
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
	}
	return l, data, nil
}

// ReadLatticeHeader reads what AppendLatticeHeader wrote.
func ReadLatticeHeader(data []byte) (n int, minsup float64, passes int, rest []byte, err error) {
	var vals [3]uint64
	for i, what := range []string{"N", "κ", "passes"} {
		if vals[i], data, err = readUvarint(data); err != nil {
			return 0, 0, 0, nil, fmt.Errorf("itemset: decoding lattice %s: %w", what, err)
		}
	}
	if vals[0] > math.MaxInt64 || vals[2] > math.MaxInt64 {
		return 0, 0, 0, nil, fmt.Errorf("itemset: %w: lattice header out of range", diskio.ErrCorrupt)
	}
	return int(vals[0]), math.Float64frombits(vals[1]), int(vals[2]), data, nil
}

// ReadSection reads one section written by AppendSection, handing each set
// and its count to fn; the set is overwritten by the next call. A set that is
// empty or not canonical, or that does not come after the one before it in
// SortItemsets order — so no set comes twice — makes the section corrupt.
func ReadSection(data []byte, fn func(x Itemset, count int) error) ([]byte, error) {
	n, data, err := readUvarint(data)
	if err != nil {
		return nil, fmt.Errorf("itemset: decoding section size: %w", err)
	}
	if n > uint64(len(data)) {
		return nil, fmt.Errorf("itemset: %w: implausible section size %d", diskio.ErrCorrupt, n)
	}
	var x, prev Itemset
	for i := uint64(0); i < n; i++ {
		var size, gap, count uint64
		if size, data, err = readUvarint(data); err != nil {
			return nil, fmt.Errorf("itemset: decoding set size: %w", err)
		}
		if size == 0 || size > uint64(len(data)) {
			return nil, fmt.Errorf("itemset: %w: implausible set size %d", diskio.ErrCorrupt, size)
		}
		x = x[:0]
		for it := int64(-1); size > 0; size-- {
			if gap, data, err = readUvarint(data); err != nil {
				return nil, fmt.Errorf("itemset: decoding item: %w", err)
			}
			if gap == 0 || gap > uint64(math.MaxInt32-it) {
				return nil, fmt.Errorf("itemset: %w: item gap %d after %d", diskio.ErrCorrupt, gap, it)
			}
			it += int64(gap)
			x = append(x, Item(it))
		}
		if count, data, err = readUvarint(data); err != nil {
			return nil, fmt.Errorf("itemset: decoding count of %v: %w", x, err)
		}
		if count > math.MaxInt64 || i > 0 && CompareItemsets(prev, x) >= 0 {
			return nil, fmt.Errorf("itemset: %w: %v at %d after %v", diskio.ErrCorrupt, x, count, prev)
		}
		if err := fn(x, int(count)); err != nil {
			return nil, err
		}
		x, prev = prev, x
	}
	return data, nil
}

// readUvarint reads one uvarint, accepting only its shortest encoding — the
// one the encoders write — so that bytes which decode re-encode to
// themselves.
func readUvarint(data []byte) (uint64, []byte, error) {
	x, n := binary.Uvarint(data)
	if n <= 0 || n > 1 && data[n-1] == 0 {
		return 0, nil, fmt.Errorf("%w: bad uvarint", diskio.ErrCorrupt)
	}
	return x, data[n:], nil
}
