package blockseq

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestSnapshotAppend(t *testing.T) {
	var s Snapshot
	if s.T != 0 {
		t.Fatalf("zero snapshot T = %d, want 0", s.T)
	}
	for want := ID(1); want <= 5; want++ {
		var id ID
		s, id = s.Append()
		if id != want {
			t.Fatalf("Append assigned id %d, want %d", id, want)
		}
		if s.T != want {
			t.Fatalf("after Append, T = %d, want %d", s.T, want)
		}
	}
}

func TestUnrestrictedWindow(t *testing.T) {
	s := Snapshot{T: 7}
	w := s.Unrestricted()
	if w.Lo != 1 || w.Hi != 7 {
		t.Fatalf("Unrestricted = %v, want D[1, 7]", w)
	}
	if w.Len() != 7 {
		t.Fatalf("Len = %d, want 7", w.Len())
	}
}

func TestMostRecentWindow(t *testing.T) {
	tests := []struct {
		t      ID
		w      int
		lo, hi ID
	}{
		{t: 10, w: 3, lo: 8, hi: 10},
		{t: 3, w: 3, lo: 1, hi: 3},
		{t: 2, w: 5, lo: 1, hi: 2}, // t < w degenerates to D[1, t]
		{t: 1, w: 1, lo: 1, hi: 1},
	}
	for _, tc := range tests {
		got := Snapshot{T: tc.t}.MostRecent(tc.w)
		if got.Lo != tc.lo || got.Hi != tc.hi {
			t.Errorf("Snapshot{T:%d}.MostRecent(%d) = %v, want D[%d, %d]",
				tc.t, tc.w, got, tc.lo, tc.hi)
		}
	}
}

func TestMostRecentPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MostRecent(0) did not panic")
		}
	}()
	Snapshot{T: 3}.MostRecent(0)
}

func TestWindowShiftAndContains(t *testing.T) {
	w := Window{3, 5}
	if !w.Contains(3) || !w.Contains(5) || w.Contains(2) || w.Contains(6) {
		t.Fatalf("Contains misbehaves for %v", w)
	}
	sh := w.Shift()
	if sh.Lo != 4 || sh.Hi != 6 {
		t.Fatalf("Shift = %v, want D[4, 6]", sh)
	}
	if got := w.String(); got != "D[3, 5]" {
		t.Fatalf("String = %q", got)
	}
}

func TestWindowLenEmpty(t *testing.T) {
	if got := (Window{5, 4}).Len(); got != 0 {
		t.Fatalf("inverted window Len = %d, want 0", got)
	}
}

// Property: the most recent window always ends at t, has length min(w, t),
// and is contained in the unrestricted window.
func TestMostRecentProperties(t *testing.T) {
	f := func(tRaw uint8, wRaw uint8) bool {
		tt := ID(tRaw%100) + 1
		w := int(wRaw%100) + 1
		s := Snapshot{T: tt}
		mrw := s.MostRecent(w)
		if mrw.Hi != tt {
			return false
		}
		wantLen := w
		if int(tt) < w {
			wantLen = int(tt)
		}
		if mrw.Len() != wantLen {
			return false
		}
		uw := s.Unrestricted()
		return mrw.Lo >= uw.Lo && mrw.Hi <= uw.Hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAppendKeyMatchesFmt: the hand-built key form is fmt's %08d, for every
// width and sign.
func TestAppendKeyMatchesFmt(t *testing.T) {
	for _, id := range []ID{0, 1, 9, 10, 9999999, 10000000, 99999999, 100000000, 123456789012, -1, -9999999, -10000000} {
		if got, want := string(id.AppendKey([]byte("k/"))), fmt.Sprintf("k/%08d", int(id)); got != want {
			t.Errorf("AppendKey(%d) = %q, want %q", id, got, want)
		}
	}
}
