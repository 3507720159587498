package tidlist

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"github.com/demon-mining/demon/internal/diskio"
	"github.com/demon-mining/demon/internal/itemset"
)

// A segment holds every list of one block under one store key: the item
// lists under "tid/<id>", the materialized pair lists under "tid2/<id>".
// Every number is a uvarint:
//
//	segment   = count base directory lists
//	directory = count × (key gap, byte length)
//	lists     = the lists in key order, back to back, each its TID gaps
//
// base is the block's first TID. Keys strictly increase: an item's key is
// the item, a pair (a, b)'s is a<<32 | b. A key gap is the key less the
// previous key (the first: the key plus one); a TID gap is the TID less the
// previous TID of its list (the first: less base − 1). So every gap is at
// least one, and a list needs no count of its own: its byte length in the
// directory delimits it. The decoder accepts only what appendSegment writes
// (shortest varints, every gap positive, the lengths summing to the bytes
// left), so the bytes that decode re-encode to themselves.

// maxTID bounds a decoded TID, so that adding a gap cannot overflow.
const maxTID = 1 << 62

// pairKeyOf is the directory key of a pair a < b; an item's is the item.
func pairKeyOf(a, b itemset.Item) uint64 { return uint64(a)<<32 | uint64(b) }

// appendSegment encodes the lists keyed by keys, which strictly increase:
// list i is the TIDs base+row, row each entry of entries[ends[i-1]:ends[i]]
// under rowMask (Materialize's are item<<32 | row), strictly increasing.
func appendSegment(buf []byte, base int, keys []uint64, ends []int, entries []uint64, rowMask uint64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(keys)))
	buf = binary.AppendUvarint(buf, uint64(base))
	next, start := uint64(0), 0
	for i, key := range keys {
		if key < next {
			panic(fmt.Sprintf("tidlist: segment keys not strictly increasing: %d after %d", key, next-1))
		}
		n, prev := 0, -1
		for _, e := range entries[start:ends[i]] {
			row := int(e & rowMask)
			if row <= prev {
				panic(fmt.Sprintf("tidlist: list %d not strictly increasing from %d: %d after %d", key, base, base+row, base+prev))
			}
			n += (bits.Len64(uint64(row-prev)|1) + 6) / 7
			prev = row
		}
		buf = binary.AppendUvarint(binary.AppendUvarint(buf, key-next+1), uint64(n))
		next, start = key+1, ends[i]
	}
	start = 0
	for _, end := range ends {
		prev := -1
		for _, e := range entries[start:end] {
			row := int(e & rowMask)
			if gap := row - prev; gap < 0x80 {
				buf = append(buf, byte(gap))
			} else {
				buf = binary.AppendUvarint(buf, uint64(gap))
			}
			prev = row
		}
		start = end
	}
	return buf
}

// dir reads a segment's directory, entry by entry; once every entry is
// read, rest is the lists, and end must be their length.
type dir struct {
	rest         []byte // the directory entries not yet read, then the lists
	left         int    // entries not yet read
	next, maxKey uint64 // the least key the next entry may have, and the most
	end          int    // where the last entry's list ends in the lists
}

func corrupt(format string, a ...any) error {
	return fmt.Errorf("%w: tidlist segment: %s", diskio.ErrCorrupt, fmt.Sprintf(format, a...))
}

// uvarint is diskio.ReadShortestUvarint with the one-byte case inline.
func uvarint(b []byte) (uint64, []byte, error) {
	if len(b) > 0 && b[0] < 0x80 {
		return uint64(b[0]), b[1:], nil
	}
	return diskio.ReadShortestUvarint(b)
}

// openDir reads a segment's header.
func openDir(data []byte, pairs bool) (d dir, base int, err error) {
	n, rest, err := uvarint(data)
	if err != nil {
		return d, 0, err
	}
	b, rest, err := uvarint(rest)
	if err != nil {
		return d, 0, err
	}
	if n > uint64(len(rest)/2) || b > maxTID { // an entry takes two bytes at least
		return d, 0, corrupt("%d lists in %d bytes from base %d", n, len(rest), b)
	}
	d = dir{rest: rest, left: int(n), maxKey: math.MaxInt32}
	if pairs {
		d.maxKey = pairKeyOf(math.MaxInt32-1, math.MaxInt32)
	}
	return d, int(b), nil
}

// entry reads the next directory entry: its key and the end of its list,
// whose start is the end of the one before.
func (d *dir) entry() (key uint64, end int, err error) {
	gap, rest, err := uvarint(d.rest)
	if err != nil {
		return 0, 0, err
	}
	n, rest, err := uvarint(rest)
	if err != nil {
		return 0, 0, err
	}
	if gap == 0 || d.next > d.maxKey || gap-1 > d.maxKey-d.next || n > uint64(len(rest)) {
		return 0, 0, corrupt("key gap %d after %d, list of %d bytes", gap, d.next, n)
	}
	key = d.next + gap - 1
	if a, b := key>>32, key&math.MaxUint32; d.maxKey > math.MaxInt32 && (a >= b || b > math.MaxInt32) {
		return 0, 0, corrupt("pair key %d-%d", a, b)
	}
	d.rest, d.left, d.next, d.end = rest, d.left-1, key+1, d.end+int(n)
	return key, d.end, nil
}

// decodeList decodes one list onto the end of slab, returning the extended
// slab and the list, capped so that an append cannot reach the next one. A
// slab without room is replaced by one at least twice its size, not grown,
// which would copy the lists cut from it; a nil slab gets a list of its own.
func decodeList(slab List, data []byte, base int) (List, List, error) {
	if slab != nil && cap(slab)-len(slab) < len(data) { // a list has fewer entries than bytes
		slab = make(List, 0, max(2*cap(slab), len(data)))
	}
	start, prev := len(slab), base-1
	for len(data) > 0 {
		// Gaps of one and two bytes, under 16,384, inline.
		switch c := data[0]; {
		case c-1 < 0x7f:
			prev += int(c)
			data = data[1:]
		case c >= 0x80 && len(data) >= 2 && data[1]-1 < 0x7f:
			prev += int(c&0x7f) | int(data[1])<<7
			data = data[2:]
		default:
			gap, rest, err := diskio.ReadShortestUvarint(data)
			if err != nil {
				return nil, nil, err
			}
			if gap == 0 || gap > maxTID || int(gap) > maxTID-prev {
				return nil, nil, corrupt("TID gap %d after %d", gap, prev)
			}
			prev += int(gap)
			data = rest
		}
		slab = append(slab, prev)
	}
	return slab, slab[start:len(slab):len(slab)], nil
}

// view is one block's segment, located for a pass's wanted keys.
type view struct {
	base  int
	body  []byte // the lists
	spans []span // by wanted key
	found int    // the wanted keys the segment has
}

// span is where a wanted key's list lies in body, if ok, and it decoded.
type span struct {
	from, to    int
	ok, decoded bool
	list        List
}

// locate walks the directory of segment data (nil: none) in one merge with
// wanted, which is sorted, keeping where the wanted keys' lists lie. It
// reads every entry, so that the lengths are checked against the lists.
func (v *view) locate(data []byte, pairs bool, wanted []uint64) error {
	v.spans = slices.Grow(v.spans[:0], len(wanted))[:len(wanted)]
	clear(v.spans) // drop the lists of the last block, and the slabs they hold
	v.body, v.found = nil, 0
	if data == nil {
		return nil
	}
	d, base, err := openDir(data, pairs)
	if err != nil {
		return err
	}
	w, start := 0, 0
	for d.left > 0 {
		// An item entry of a one-byte key gap and length that passes entry's
		// checks, which most are, is read inline.
		if r := d.rest; !pairs && len(r) >= 2 && r[0]-1 < 0x7f && r[1] < 0x80 && int(r[1]) <= len(r)-2 && d.next+uint64(r[0]) <= math.MaxInt32+1 {
			d.rest, d.left, d.next, d.end = r[2:], d.left-1, d.next+uint64(r[0]), d.end+int(r[1])
		} else if _, _, err := d.entry(); err != nil {
			return err
		}
		key := d.next - 1 // either read leaves the entry's key and end in d
		for w < len(wanted) && wanted[w] < key {
			w++
		}
		if w < len(wanted) && wanted[w] == key {
			v.spans[w] = span{from: start, to: d.end, ok: true}
			v.found++
			w++
		}
		start = d.end
	}
	if d.end != len(d.rest) {
		return corrupt("lists of %d bytes in %d", d.end, len(d.rest))
	}
	v.base, v.body = base, d.rest
	return nil
}

// decode returns the list of v's wanted key i (nil when the segment has
// none), decoding it onto the end of slab at the first call.
func (s *Store) decode(slab List, v *view, i int) (List, List, error) {
	sp := &v.spans[i]
	if !sp.ok || sp.decoded {
		return slab, sp.list, nil
	}
	data := v.body[sp.from:sp.to]
	grown, l, err := decodeList(slab, data, v.base)
	if err != nil {
		return slab, nil, err
	}
	s.entriesRead.Add(int64(len(l)))
	s.listBytes.Add(int64(len(data)))
	sp.list, sp.decoded = l, true
	return grown, l, nil
}
