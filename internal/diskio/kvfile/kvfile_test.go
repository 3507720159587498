package kvfile

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/demon-mining/demon/internal/diskio"
)

func openT(t *testing.T, path string, opts Options) *Store {
	t.Helper()
	s, err := Open(path, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	return s
}

// dump reads the full logical state of a store.
func dump(t *testing.T, s *Store) map[string]string {
	t.Helper()
	keys, err := s.Keys("")
	if err != nil {
		t.Fatalf("Keys: %v", err)
	}
	out := make(map[string]string, len(keys))
	for _, k := range keys {
		v, err := s.Get(k)
		if err != nil {
			t.Fatalf("Get(%q): %v", k, err)
		}
		out[k] = string(v)
	}
	return out
}

func TestReopenPersists(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.kv")
	s := openT(t, path, Options{})
	want := map[string]string{}
	for i := 0; i < 20; i++ {
		k, v := fmt.Sprintf("key/%02d", i), fmt.Sprintf("value-%d", i*i)
		if err := s.Put(k, []byte(v)); err != nil {
			t.Fatalf("Put: %v", err)
		}
		want[k] = v
	}
	if err := s.Delete("key/07"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	delete(want, "key/07")
	if err := s.Put("key/03", []byte("overwritten")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	want["key/03"] = "overwritten"
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s = openT(t, path, Options{})
	defer s.Close()
	got := dump(t, s)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("reopened state = %v, want %v", got, want)
	}
}

func TestBatchedSyncReplaysOnReopen(t *testing.T) {
	// With a large SyncEvery nothing is superblock-committed, but the
	// appends themselves hit the file: reopening must replay them from the
	// tail (crash between data write and commit mark).
	path := filepath.Join(t.TempDir(), "s.kv")
	s := openT(t, path, Options{SyncEvery: 1000})
	for i := 0; i < 10; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	crash(s)

	s = openT(t, path, Options{})
	defer s.Close()
	if n := s.Len(); n != 10 {
		t.Fatalf("replayed %d keys, want 10", n)
	}
}

func TestTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.kv")
	s := openT(t, path, Options{})
	if err := s.Put("good", []byte("payload")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Append a torn record: a prefix of a real append, cut mid-value.
	buf, _ := appendRecord(kindPut, "torn", bytes.Repeat([]byte("x"), 100))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(buf[:len(buf)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s = openT(t, path, Options{})
	defer s.Close()
	got := dump(t, s)
	if len(got) != 1 || got["good"] != "payload" {
		t.Fatalf("state after torn tail = %v, want only good=payload", got)
	}
	// The debris must be gone from the file, not just skipped.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != superblockSize+s.LogBytes() {
		t.Fatalf("file is %d bytes, log claims %d", fi.Size(), superblockSize+s.LogBytes())
	}
}

func TestCommittedCorruptionRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.kv")
	s := openT(t, path, Options{})
	if err := s.Put("k", bytes.Repeat([]byte("v"), 64)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[superblockSize+10] ^= 0xff // flip a committed byte
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(path, Options{}); !errors.Is(err, diskio.ErrCorrupt) {
		t.Fatalf("Open on corrupt committed region: err = %v, want ErrCorrupt", err)
	}
}

func TestSuperblockSlotFallback(t *testing.T) {
	// Destroying the newest slot must fall back to the older one; the
	// records past its (older) commit offset verify and are replayed, so no
	// data is lost.
	path := filepath.Join(t.TempDir(), "s.kv")
	s := openT(t, path, Options{})
	if err := s.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", []byte("2")); err != nil {
		t.Fatal(err)
	}
	newestSlot := int64(s.gen%2) * slotSize
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(bytes.Repeat([]byte{0xde}, slotSize), newestSlot); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s = openT(t, path, Options{})
	defer s.Close()
	got := dump(t, s)
	if got["a"] != "1" || got["b"] != "2" || len(got) != 2 {
		t.Fatalf("state after slot loss = %v, want a=1 b=2", got)
	}
}

func TestBothSlotsDestroyedRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.kv")
	s := openT(t, path, Options{})
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(bytes.Repeat([]byte{0xde}, superblockSize), 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := Open(path, Options{}); !errors.Is(err, diskio.ErrCorrupt) {
		t.Fatalf("Open with no valid slot: err = %v, want ErrCorrupt", err)
	}
}

func TestCompactReclaims(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.kv")
	s := openT(t, path, Options{NoAutoCompact: true})
	val := bytes.Repeat([]byte("x"), 1000)
	for round := 0; round < 10; round++ {
		for i := 0; i < 5; i++ {
			if err := s.Put(fmt.Sprintf("k%d", i), val); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Delete("k4"); err != nil {
		t.Fatal(err)
	}
	before := s.LogBytes()
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	after := s.LogBytes()
	if after >= before/5 {
		t.Fatalf("LogBytes after compact = %d, want far below %d", after, before)
	}
	want := map[string]string{"k0": string(val), "k1": string(val), "k2": string(val), "k3": string(val)}
	if got := dump(t, s); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("state after compact lost data: %d keys, want 4", len(got))
	}
	// Mutations and reopen must work on the compacted file.
	if err := s.Put("post", []byte("compact")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = openT(t, path, Options{})
	defer s.Close()
	if got := dump(t, s); got["post"] != "compact" || got["k0"] != string(val) || len(got) != 5 {
		t.Fatalf("state after compact+reopen = %d keys (post=%q)", len(got), got["post"])
	}
}

func TestAutoCompactTriggers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.kv")
	s := openT(t, path, Options{CompactMinBytes: 4096, CompactFraction: 0.5})
	defer s.Close()
	val := bytes.Repeat([]byte("y"), 512)
	for round := 0; round < 50; round++ {
		if err := s.Put("hot", val); err != nil {
			t.Fatal(err)
		}
	}
	// 50 overwrites of one 512-byte value: without compaction the log would
	// hold ~25 KiB of garbage; the trigger must have kept it bounded.
	if lb := s.LogBytes(); lb > 16*1024 {
		t.Fatalf("LogBytes = %d, auto-compaction never fired", lb)
	}
	got, err := s.Get("hot")
	if err != nil || !bytes.Equal(got, val) {
		t.Fatalf("Get(hot) after auto-compact: %v", err)
	}
}

func TestDeleteAbsentAppendsNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.kv")
	s := openT(t, path, Options{})
	defer s.Close()
	before := s.LogBytes()
	if err := s.Delete("never"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if s.LogBytes() != before {
		t.Fatalf("Delete of absent key grew the log by %d bytes", s.LogBytes()-before)
	}
}

func TestClosedOps(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.kv")
	s := openT(t, path, Options{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
	if err := s.Put("k", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put on closed: %v, want ErrClosed", err)
	}
	if _, err := s.Get("k"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get on closed: %v, want ErrClosed", err)
	}
}

func TestLeftoverCompactTempIgnored(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.kv")
	s := openT(t, path, Options{})
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A crash mid-compaction leaves an incomplete temp file behind.
	if err := os.WriteFile(compactPath(path), []byte("junk from a dead compaction"), 0o644); err != nil {
		t.Fatal(err)
	}
	s = openT(t, path, Options{})
	defer s.Close()
	if got := dump(t, s); got["k"] != "v" {
		t.Fatalf("state = %v", got)
	}
	if _, err := os.Stat(compactPath(path)); !os.IsNotExist(err) {
		t.Fatalf("leftover compact temp not removed: %v", err)
	}
}

// TestStatsCountMutations pins the I/O accounting the perf suite relies on:
// every Put and every effective Delete counts as one write, absent-key
// deletes count nothing, and Get counts one read of the value length.
func TestStatsCountMutations(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.kv")
	s := openT(t, path, Options{})
	defer s.Close()
	if err := s.Put("a", []byte("xyz")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if _, err := s.Get("a"); err != nil {
		t.Fatalf("Get: %v", err)
	}
	if err := s.Delete("absent"); err != nil { // no-op, must not count
		t.Fatalf("Delete absent: %v", err)
	}
	if err := s.Delete("a"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	st := s.Stats()
	if st.Writes != 2 {
		t.Fatalf("Writes = %d, want 2 (one Put + one effective Delete)", st.Writes)
	}
	if st.BytesWritten != 3 {
		t.Fatalf("BytesWritten = %d, want 3", st.BytesWritten)
	}
	if st.Reads != 1 || st.BytesRead != 3 {
		t.Fatalf("Reads/BytesRead = %d/%d, want 1/3", st.Reads, st.BytesRead)
	}
}

// TestKeysMatchModel: Keys answers from the index itself, so after every
// kind of mutation, and after a reopen, each listing is exactly the model's
// matches in order — for the whole store, a top-level directory, a prefix
// ending mid-segment and a prefix nothing matches.
func TestKeysMatchModel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "keys.kv")
	s := openT(t, path, Options{SyncEvery: 8, NoAutoCompact: true})
	model := map[string]bool{}
	check := func(step string) {
		t.Helper()
		for _, prefix := range []string{"", "tid/", "ti", "nope/"} {
			var want []string
			for k := range model {
				if strings.HasPrefix(k, prefix) {
					want = append(want, k)
				}
			}
			sort.Strings(want)
			got, err := s.Keys(prefix)
			if err != nil {
				t.Fatalf("%s: Keys(%q): %v", step, prefix, err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: Keys(%q) = %v, want %v", step, prefix, got, want)
			}
		}
	}
	key := func(r *rand.Rand) string {
		return fmt.Sprintf("%s/%d", []string{"tid", "tick", "meta"}[r.Intn(3)], r.Intn(12))
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		var step string
		switch op := r.Intn(10); {
		case op < 4:
			k := key(r)
			step = fmt.Sprintf("op %d: Put %s", i, k)
			if err := s.Put(k, []byte(step)); err != nil {
				t.Fatalf("%s: %v", step, err)
			}
			model[k] = true
		case op < 7:
			k := key(r)
			step = fmt.Sprintf("op %d: Delete %s", i, k)
			if err := s.Delete(k); err != nil {
				t.Fatalf("%s: %v", step, err)
			}
			delete(model, k)
		case op < 9:
			put, del := key(r), key(r)
			if put == del {
				continue
			}
			step = fmt.Sprintf("op %d: Apply put %s, delete %s", i, put, del)
			if err := s.Apply([]diskio.KV{{Key: put, Value: []byte(step)}}, []string{del}); err != nil {
				t.Fatalf("%s: %v", step, err)
			}
			model[put] = true
			delete(model, del)
		default:
			step = fmt.Sprintf("op %d: Compact", i)
			if err := s.Compact(); err != nil {
				t.Fatalf("%s: %v", step, err)
			}
		}
		check(step)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s = openT(t, path, Options{})
	defer s.Close()
	check("reopened")
}
