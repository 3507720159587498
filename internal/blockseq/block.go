// Package blockseq models systematic block evolution as defined in Section 2
// of the DEMON paper (Ganti, Gehrke, Ramakrishnan, ICDE 2000): a database is a
// conceptually infinite sequence of blocks D1, D2, ... whose identifiers
// increase in arrival order, together with the data span dimension
// (unrestricted window and most recent window) and block selection sequences
// (window-independent and window-relative) with their projection and
// right-shift operations.
package blockseq

import (
	"fmt"
	"strconv"
)

// ID identifies a block. IDs are natural numbers starting at 1 and increase
// in the order of block arrival; the ordering is total, which is the defining
// difference between systematic and arbitrary evolution.
type ID int

// AppendKey appends the identifier in the form it takes inside store keys:
// decimal, zero-padded to eight digits (fmt's %08d), so that keys sort in
// block order.
func (id ID) AppendKey(buf []byte) []byte {
	var tmp [20]byte
	digits := strconv.AppendInt(tmp[:0], int64(id), 10)
	width := len(digits)
	if id < 0 {
		buf = append(buf, '-')
		digits = digits[1:]
	}
	for ; width < 8; width++ {
		buf = append(buf, '0')
	}
	return append(buf, digits...)
}

// Window is a contiguous, inclusive range of block identifiers [Lo, Hi].
// The paper writes it D[Lo, Hi].
type Window struct {
	Lo, Hi ID
}

// Len returns the number of blocks spanned by the window.
func (w Window) Len() int {
	if w.Hi < w.Lo {
		return 0
	}
	return int(w.Hi - w.Lo + 1)
}

// Contains reports whether block id lies inside the window.
func (w Window) Contains(id ID) bool { return id >= w.Lo && id <= w.Hi }

// Shift returns the window moved right by one block, D[Lo+1, Hi+1]. It is the
// window transition that occurs when a new block is appended under the most
// recent window option.
func (w Window) Shift() Window { return Window{w.Lo + 1, w.Hi + 1} }

// String renders the window in the paper's D[lo, hi] notation.
func (w Window) String() string { return fmt.Sprintf("D[%d, %d]", w.Lo, w.Hi) }

// Snapshot is the current database snapshot: the sequence of all blocks
// D1, ..., Dt currently in the database. Only the latest identifier needs to
// be carried; block payloads live in a store (see internal/diskio).
type Snapshot struct {
	// T is the identifier of the latest block; zero means the database is
	// empty.
	T ID
}

// Append returns the snapshot after one more block arrives and the identifier
// assigned to that block.
func (s Snapshot) Append() (Snapshot, ID) {
	id := s.T + 1
	return Snapshot{T: id}, id
}

// Unrestricted returns the unrestricted window D[1, t], i.e. all data
// collected so far.
func (s Snapshot) Unrestricted() Window { return Window{1, s.T} }

// MostRecent returns the most recent window of size w, D[t-w+1, t]. When
// fewer than w blocks exist it degenerates to D[1, t], matching the t < w
// special case in Section 2.2 of the paper. w must be positive.
func (s Snapshot) MostRecent(w int) Window {
	if w <= 0 {
		panic("blockseq: window size must be positive")
	}
	lo := s.T - ID(w) + 1
	if lo < 1 {
		lo = 1
	}
	return Window{lo, s.T}
}
