package kvfile

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/demon-mining/demon/internal/diskio"
	"github.com/demon-mining/demon/internal/obs"
)

// recording installs an enabled registry for the test to read counters from.
func recording(t *testing.T) *obs.Registry {
	t.Helper()
	reg := obs.NewRegistry()
	prev := obs.SetDefault(reg)
	t.Cleanup(func() { obs.SetDefault(prev) })
	return reg
}

// crash drops the handle the way a dying process does: no final commit.
func crash(s *Store) {
	s.mu.Lock()
	s.f.Close()
	s.closed = true
	s.mu.Unlock()
}

// batchFixture writes two committed records, then one batch (two puts, an
// overwrite and a delete) — committed when flipped, left in the tail past
// the commit offset otherwise — and returns the file bytes, the offsets the
// batch frame spans, and the store's state without and with the batch.
func batchFixture(t *testing.T, path string, flipped bool) (data []byte, lo, hi int64, none, all map[string]string) {
	t.Helper()
	s := openT(t, path, Options{SyncEvery: 1000, NoAutoCompact: true})
	for _, k := range []string{"base/keep", "base/drop"} {
		if err := s.Put(k, []byte("old-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	none = dump(t, s)
	lo = superblockSize + s.LogBytes()
	puts := []diskio.KV{
		{Key: "batch/a", Value: bytes.Repeat([]byte("a"), 40)},
		{Key: "base/keep", Value: []byte("new")},
		{Key: "batch/empty", Value: nil},
	}
	if err := s.Apply(puts, []string{"base/drop", "never-existed"}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	hi = superblockSize + s.LogBytes()
	all = dump(t, s)
	if len(all) != 3 || all["base/keep"] != "new" {
		t.Fatalf("state after Apply = %v", all)
	}
	if flipped {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	} else {
		crash(s)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) != hi {
		t.Fatalf("file is %d bytes, the log ends at %d", len(data), hi)
	}
	return data, lo, hi, none, all
}

// TestBatchFrameDamage truncates and bit-flips the file at every byte of a
// batch frame, before and after the superblock flip that commits it. A
// reopen yields all of the batch or none of it — never a subset, never an
// altered value — or fails with ErrCorrupt, and must fail once the batch is
// committed.
func TestBatchFrameDamage(t *testing.T) {
	for _, flipped := range []bool{false, true} {
		path := filepath.Join(t.TempDir(), "s.kv")
		orig, lo, hi, none, all := batchFixture(t, path, flipped)
		reopen := func(why string, data []byte) (state map[string]string, err error) {
			t.Helper()
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := Open(path, Options{})
			if err != nil {
				if !errors.Is(err, diskio.ErrCorrupt) {
					t.Fatalf("flipped=%v %s: reopen failed with %v, want ErrCorrupt", flipped, why, err)
				}
				return nil, err
			}
			defer s.Close()
			state = dump(t, s)
			if fmt.Sprint(state) != fmt.Sprint(none) && fmt.Sprint(state) != fmt.Sprint(all) {
				t.Fatalf("flipped=%v %s: reopened with part of the batch: %v", flipped, why, state)
			}
			return state, nil
		}

		if state, err := reopen("undamaged", orig); err != nil || fmt.Sprint(state) != fmt.Sprint(all) {
			t.Fatalf("flipped=%v: undamaged reopen = %v, %v; want the whole batch", flipped, state, err)
		}
		for off := lo; off < hi; off++ {
			why := fmt.Sprintf("truncated at %d of [%d,%d)", off, lo, hi)
			state, err := reopen(why, orig[:off])
			switch {
			case flipped && err == nil:
				t.Fatalf("%s: a committed batch was cut and the store opened with %v", why, state)
			case !flipped && (err != nil || fmt.Sprint(state) != fmt.Sprint(none)):
				t.Fatalf("%s: a torn uncommitted batch must be discarded whole: %v, %v", why, state, err)
			}

			why = fmt.Sprintf("bit flipped at %d of [%d,%d)", off, lo, hi)
			data := append([]byte(nil), orig...)
			data[off] ^= 0x10
			state, err = reopen(why, data)
			if err == nil && (flipped || fmt.Sprint(state) != fmt.Sprint(none)) {
				t.Fatalf("flipped=%v %s: damage went unnoticed, store opened with %v", flipped, why, state)
			}
		}
	}
}

// TestBatchCrossesSyncThreshold: under SyncEvery=N a batch is acknowledged
// like its keys' single mutations would be — in the log at once, committed
// once N mutations are pending.
func TestBatchCrossesSyncThreshold(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.kv")
	s := openT(t, path, Options{SyncEvery: 10})
	batch := func(name string) []diskio.KV {
		var puts []diskio.KV
		for i := 0; i < 7; i++ {
			puts = append(puts, diskio.KV{Key: fmt.Sprintf("%s/%d", name, i), Value: []byte(name)})
		}
		return puts
	}
	fsyncs := recording(t).Counter("diskio.kvfile.fsyncs")
	before, commit := fsyncs.Value(), s.commit
	if err := s.Apply(batch("first"), nil); err != nil {
		t.Fatal(err)
	}
	if s.commit != commit || s.pending != 7 || fsyncs.Value() != before {
		t.Fatalf("7 of 10 mutations: commit %d -> %d, pending %d, %d fsyncs", commit, s.commit, s.pending, fsyncs.Value()-before)
	}
	if err := s.Apply(batch("second"), nil); err != nil {
		t.Fatal(err)
	}
	if s.commit != s.dataEnd || s.pending != 0 || fsyncs.Value() != before+2 {
		t.Fatalf("14 of 10 mutations: commit %d of %d, pending %d, %d fsyncs", s.commit, s.dataEnd, s.pending, fsyncs.Value()-before)
	}
	if err := s.Apply(batch("third"), nil); err != nil {
		t.Fatal(err)
	}
	crash(s)
	s = openT(t, path, Options{})
	defer s.Close()
	if n := s.Len(); n != 21 {
		t.Fatalf("reopened with %d keys, want the uncommitted third batch replayed too (21)", n)
	}
}

// TestCompactLogWithBatches: compaction rewrites batch members as plain
// records and drops the deletes and overwrites a batch carried.
func TestCompactLogWithBatches(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.kv")
	s := openT(t, path, Options{NoAutoCompact: true})
	want := map[string]string{}
	for round := 0; round < 6; round++ {
		var puts []diskio.KV
		for i := 0; i < 5; i++ {
			k, v := fmt.Sprintf("k%d", i), bytes.Repeat([]byte{byte('a' + round)}, 200+i)
			puts = append(puts, diskio.KV{Key: k, Value: v})
			want[k] = string(v)
		}
		fresh := fmt.Sprintf("round/%d", round)
		puts = append(puts, diskio.KV{Key: fresh, Value: []byte(fresh)})
		want[fresh] = fresh
		var dels []string
		if round > 0 {
			dels = []string{fmt.Sprintf("round/%d", round-1)}
			delete(want, dels[0])
		}
		if err := s.Apply(puts, dels); err != nil {
			t.Fatal(err)
		}
	}
	before := s.LogBytes()
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if after := s.LogBytes(); after >= before/3 {
		t.Fatalf("LogBytes after compact = %d, want far below %d", after, before)
	}
	if got := dump(t, s); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("state after compact = %d keys, want %d", len(got), len(want))
	}
	if err := s.Apply([]diskio.KV{{Key: "post", Value: []byte("compact")}}, []string{"k0"}); err != nil {
		t.Fatal(err)
	}
	want["post"] = "compact"
	delete(want, "k0")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = openT(t, path, Options{})
	defer s.Close()
	if got := dump(t, s); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("state after compact+reopen = %d keys, want %d", len(got), len(want))
	}
}

// TestTransactionCostsTwoFsyncs: at the default flush policy a transaction
// through the kvfile: stack is one Apply — a data fsync and a superblock
// fsync, whatever its key count.
func TestTransactionCostsTwoFsyncs(t *testing.T) {
	reg := recording(t)
	store, err := diskio.Open("kvfile:" + filepath.Join(t.TempDir(), "store.kv"))
	if err != nil {
		t.Fatal(err)
	}
	defer diskio.CloseStore(store)
	fsyncs, keys, journals := reg.Counter("diskio.kvfile.fsyncs"), reg.Counter("diskio.txn.apply.keys"), reg.Counter("diskio.txn.journal")
	txn := diskio.NewTxnStore(store)
	for round, n := range []int{1000, 1, 1000} {
		f0, k0, j0 := fsyncs.Value(), keys.Value(), journals.Value()
		txn.Begin()
		for i := 0; i < n; i++ {
			if err := txn.Put(fmt.Sprintf("tid/%d/%04d", round, i), bytes.Repeat([]byte{byte(i)}, 20)); err != nil {
				t.Fatal(err)
			}
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
		if got := fsyncs.Value() - f0; got != 2 {
			t.Errorf("a transaction of %d keys cost %d fsyncs, want 2", n, got)
		}
		if got := keys.Value() - k0; got != int64(n) {
			t.Errorf("diskio.txn.apply.keys moved by %d, want %d", got, n)
		}
		if journals.Value() != j0 {
			t.Errorf("the transaction took the journal sink on a store that batches")
		}
	}
}

// TestFailedFsyncPoisonsTheHandle: once a flush fails the kernel may have
// dropped the dirty pages, so a later fsync that succeeds proves nothing
// about them. Every mutation after the failure must refuse with ErrFailed,
// whichever call hit it, until the file is reopened — which must then find
// a store it can open.
func TestFailedFsyncPoisonsTheHandle(t *testing.T) {
	boom := errors.New("EIO")
	put := func(s *Store) error { return s.Put("victim", []byte("v")) }
	for name, tc := range map[string]struct {
		opts  Options
		nth   int // which fsync of the trigger fails, counting from 1
		setup func(s *Store) error
		fail  func(s *Store) error
	}{
		"put, data fsync":       {nth: 1, fail: put},
		"put, superblock fsync": {nth: 2, fail: put},
		"delete":                {nth: 1, setup: put, fail: func(s *Store) error { return s.Delete("victim") }},
		"apply, data fsync": {nth: 1, fail: func(s *Store) error {
			return s.Apply([]diskio.KV{{Key: "a", Value: []byte("1")}, {Key: "b", Value: []byte("2")}}, nil)
		}},
		"apply, superblock fsync": {nth: 2, fail: func(s *Store) error {
			return s.Apply([]diskio.KV{{Key: "a", Value: []byte("1")}}, nil)
		}},
		"sync":                   {opts: Options{SyncEvery: 100}, nth: 1, setup: put, fail: (*Store).Sync},
		"close":                  {opts: Options{SyncEvery: 100}, nth: 2, setup: put, fail: (*Store).Close},
		"compact, log fsync":     {opts: Options{SyncEvery: 100}, nth: 1, setup: put, fail: (*Store).Compact},
		"compact, rewrite fsync": {nth: 1, setup: put, fail: (*Store).Compact},
		"compact, dir fsync":     {nth: 3, setup: put, fail: (*Store).Compact},
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "s.kv")
			s := openT(t, path, tc.opts)
			if err := s.Put("committed", []byte("safe")); err != nil {
				t.Fatal(err)
			}
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
			if tc.setup != nil {
				if err := tc.setup(s); err != nil {
					t.Fatal(err)
				}
			}
			calls := 0
			fsync = func(f *os.File) error {
				if calls++; calls == tc.nth {
					return boom
				}
				return f.Sync()
			}
			defer func() { fsync = (*os.File).Sync }()
			if err := tc.fail(s); !errors.Is(err, ErrFailed) {
				t.Fatalf("the failing call returned %v, want ErrFailed", err)
			}
			// The device has recovered; the handle must not.
			fsync = (*os.File).Sync
			for op, mutate := range map[string]func() error{
				"Put":     func() error { return s.Put("later", []byte("x")) },
				"Delete":  func() error { return s.Delete("committed") },
				"Apply":   func() error { return s.Apply([]diskio.KV{{Key: "later", Value: nil}}, nil) },
				"Sync":    s.Sync,
				"Compact": s.Compact,
			} {
				if name == "close" {
					break // closed for good, which refuses mutations too
				}
				if err := mutate(); !errors.Is(err, ErrFailed) {
					t.Errorf("%s after the failed flush returned %v, want ErrFailed", op, err)
				}
			}
			if got, err := s.Get("committed"); name != "close" && (err != nil || string(got) != "safe") {
				t.Errorf("Get after the failed flush = %q, %v; reads may go on", got, err)
			}
			if err := s.Close(); name != "close" && !errors.Is(err, ErrFailed) {
				t.Errorf("Close of a failed store returned %v, want ErrFailed", err)
			}

			re, err := Open(path, Options{})
			if err != nil {
				t.Fatalf("reopen after a failed flush: %v", err)
			}
			defer re.Close()
			if got, err := re.Get("committed"); err != nil || string(got) != "safe" {
				t.Fatalf("committed data after reopen = %q, %v", got, err)
			}
			if _, err := re.Get("later"); !errors.Is(err, diskio.ErrNotFound) {
				t.Fatalf("a mutation refused with ErrFailed reached the file: %v", err)
			}
			if err := re.Put("later", []byte("x")); err != nil {
				t.Fatalf("Put on the reopened store: %v", err)
			}
		})
	}
}
