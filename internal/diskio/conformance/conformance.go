// Package conformance is the shared oracle for diskio.Store backends: one
// table of behavioral tests every implementation — in-memory, one file per
// key, checksummed, transactional, single-file KV, cached — must pass. New
// backends wire a factory into RunStoreTests and inherit the whole contract;
// the durability simulations and digest harnesses then only need to check
// what is backend-specific (crash recovery, byte layout), not basic semantics.
package conformance

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/demon-mining/demon/internal/diskio"
)

// Factory builds a fresh, empty store for one subtest. Cleanup (closing,
// removing temp dirs) belongs on t.Cleanup inside the factory.
type Factory func(t *testing.T) diskio.Store

// RunStoreTests runs the full conformance table against stores built by
// factory. Each subtest gets its own fresh store. A store with the
// atomic-batch capability (diskio.AsBatcher) also runs the Batcher contract.
func RunStoreTests(t *testing.T, factory Factory) {
	t.Helper()
	runBatchTests(t, factory)
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, s diskio.Store)
	}{
		{"PutGetRoundtrip", testPutGetRoundtrip},
		{"EmptyValue", testEmptyValue},
		{"BinaryValue", testBinaryValue},
		{"Overwrite", testOverwrite},
		{"EmptyKeyRejected", testEmptyKeyRejected},
		{"GetMissing", testGetMissing},
		{"SizeMissing", testSizeMissing},
		{"Size", testSize},
		{"DeleteRemoves", testDeleteRemoves},
		{"DeleteAbsent", testDeleteAbsent},
		{"DeleteThenPut", testDeleteThenPut},
		{"KeysSortedByPrefix", testKeysSortedByPrefix},
		{"KeysEmptyStore", testKeysEmptyStore},
		{"KeysEmptiedDirectory", testKeysEmptiedDirectory},
		{"LargeValue", testLargeValue},
		{"ValueAliasing", testValueAliasing},
		{"ManyKeys", testManyKeys},
		{"ConcurrentReaders", testConcurrentReaders},
		{"ConcurrentReadWrite", testConcurrentReadWrite},
		{"ConcurrentWriters", testConcurrentWriters},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.run(t, factory(t))
		})
	}
}

func mustPut(t *testing.T, s diskio.Store, key string, val []byte) {
	t.Helper()
	if err := s.Put(key, val); err != nil {
		t.Fatalf("Put(%q): %v", key, err)
	}
}

func mustGet(t *testing.T, s diskio.Store, key string) []byte {
	t.Helper()
	data, err := s.Get(key)
	if err != nil {
		t.Fatalf("Get(%q): %v", key, err)
	}
	return data
}

func testPutGetRoundtrip(t *testing.T, s diskio.Store) {
	mustPut(t, s, "blocks/0001", []byte("hello"))
	if got := mustGet(t, s, "blocks/0001"); string(got) != "hello" {
		t.Fatalf("Get = %q, want %q", got, "hello")
	}
}

func testEmptyValue(t *testing.T, s diskio.Store) {
	mustPut(t, s, "empty", nil)
	got := mustGet(t, s, "empty")
	if len(got) != 0 {
		t.Fatalf("Get = %q, want empty", got)
	}
	n, err := s.Size("empty")
	if err != nil {
		t.Fatalf("Size: %v", err)
	}
	if n != 0 {
		t.Fatalf("Size = %d, want 0", n)
	}
}

func testBinaryValue(t *testing.T, s diskio.Store) {
	val := make([]byte, 300)
	for i := range val {
		val[i] = byte(i) // covers all byte values incl. 0x00 and 0xff
	}
	mustPut(t, s, "bin", val)
	if got := mustGet(t, s, "bin"); !bytes.Equal(got, val) {
		t.Fatalf("binary value mangled: got %d bytes %x..., want %d bytes", len(got), got[:8], len(val))
	}
}

func testOverwrite(t *testing.T, s diskio.Store) {
	mustPut(t, s, "k", []byte("first version, longer"))
	mustPut(t, s, "k", []byte("second"))
	if got := mustGet(t, s, "k"); string(got) != "second" {
		t.Fatalf("Get after overwrite = %q, want %q", got, "second")
	}
	n, err := s.Size("k")
	if err != nil {
		t.Fatalf("Size: %v", err)
	}
	if n != int64(len("second")) {
		t.Fatalf("Size after overwrite = %d, want %d", n, len("second"))
	}
	keys, err := s.Keys("")
	if err != nil {
		t.Fatalf("Keys: %v", err)
	}
	if len(keys) != 1 || keys[0] != "k" {
		t.Fatalf("Keys after overwrite = %v, want [k]", keys)
	}
}

func testEmptyKeyRejected(t *testing.T, s diskio.Store) {
	if err := s.Put("", []byte("x")); err == nil {
		t.Fatal("Put(\"\") succeeded, want error")
	}
}

func testGetMissing(t *testing.T, s diskio.Store) {
	if _, err := s.Get("absent"); !errors.Is(err, diskio.ErrNotFound) {
		t.Fatalf("Get(absent) err = %v, want ErrNotFound", err)
	}
}

func testSizeMissing(t *testing.T, s diskio.Store) {
	if _, err := s.Size("absent"); !errors.Is(err, diskio.ErrNotFound) {
		t.Fatalf("Size(absent) err = %v, want ErrNotFound", err)
	}
}

func testSize(t *testing.T, s diskio.Store) {
	val := bytes.Repeat([]byte("s"), 1234)
	mustPut(t, s, "sized", val)
	n, err := s.Size("sized")
	if err != nil {
		t.Fatalf("Size: %v", err)
	}
	if n != int64(len(val)) {
		t.Fatalf("Size = %d, want %d", n, len(val))
	}
}

func testDeleteRemoves(t *testing.T, s diskio.Store) {
	mustPut(t, s, "gone", []byte("x"))
	if err := s.Delete("gone"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := s.Get("gone"); !errors.Is(err, diskio.ErrNotFound) {
		t.Fatalf("Get after Delete err = %v, want ErrNotFound", err)
	}
	if _, err := s.Size("gone"); !errors.Is(err, diskio.ErrNotFound) {
		t.Fatalf("Size after Delete err = %v, want ErrNotFound", err)
	}
	keys, err := s.Keys("")
	if err != nil {
		t.Fatalf("Keys: %v", err)
	}
	if len(keys) != 0 {
		t.Fatalf("Keys after Delete = %v, want none", keys)
	}
}

func testDeleteAbsent(t *testing.T, s diskio.Store) {
	if err := s.Delete("never-existed"); err != nil {
		t.Fatalf("Delete of absent key: %v, want nil", err)
	}
}

func testDeleteThenPut(t *testing.T, s diskio.Store) {
	mustPut(t, s, "phoenix", []byte("v1"))
	if err := s.Delete("phoenix"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	mustPut(t, s, "phoenix", []byte("v2"))
	if got := mustGet(t, s, "phoenix"); string(got) != "v2" {
		t.Fatalf("Get after delete+put = %q, want v2", got)
	}
}

func testKeysSortedByPrefix(t *testing.T, s diskio.Store) {
	// Inserted out of order on purpose; Keys must come back sorted.
	for _, k := range []string{"tid/b", "blocks/2", "tid/a", "blocks/10", "blocks/1", "meta", "tid/b1/i3", "tid/b1/i1", "tid/b2/i1"} {
		mustPut(t, s, k, []byte(k))
	}
	all, err := s.Keys("")
	if err != nil {
		t.Fatalf("Keys: %v", err)
	}
	wantAll := []string{"blocks/1", "blocks/10", "blocks/2", "meta", "tid/a", "tid/b", "tid/b1/i1", "tid/b1/i3", "tid/b2/i1"}
	if fmt.Sprint(all) != fmt.Sprint(wantAll) {
		t.Fatalf("Keys(\"\") = %v, want %v", all, wantAll)
	}
	if !sort.StringsAreSorted(all) {
		t.Fatalf("Keys(\"\") not sorted: %v", all)
	}
	// A prefix is a string prefix, not a directory: it may end mid-segment,
	// at the top level or below it, and name directories that do not exist.
	for _, tc := range []struct {
		prefix string
		want   []string
	}{
		{"blocks/", []string{"blocks/1", "blocks/10", "blocks/2"}},
		{"blo", []string{"blocks/1", "blocks/10", "blocks/2"}},
		{"blocks/1", []string{"blocks/1", "blocks/10"}},
		{"blocks/0", nil},
		{"tid/", []string{"tid/a", "tid/b", "tid/b1/i1", "tid/b1/i3", "tid/b2/i1"}},
		{"tid/b1/", []string{"tid/b1/i1", "tid/b1/i3"}},
		{"nope/", nil},
		{"nope/deeper/", nil},
		{"meta/deeper/", nil},
	} {
		got, err := s.Keys(tc.prefix)
		if err != nil {
			t.Fatalf("Keys(%q): %v", tc.prefix, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Fatalf("Keys(%q) = %v, want %v", tc.prefix, got, tc.want)
		}
	}
}

func testKeysEmptyStore(t *testing.T, s diskio.Store) {
	keys, err := s.Keys("")
	if err != nil {
		t.Fatalf("Keys on empty store: %v", err)
	}
	if len(keys) != 0 {
		t.Fatalf("Keys on empty store = %v, want none", keys)
	}
}

// A directory emptied by Delete, or by an Apply delete list where the store
// batches, lists nothing, and lists its keys again after a new Put.
func testKeysEmptiedDirectory(t *testing.T, s diskio.Store) {
	keys := func(prefix, want string) {
		t.Helper()
		got, err := s.Keys(prefix)
		if err != nil {
			t.Fatalf("Keys(%q): %v", prefix, err)
		}
		if fmt.Sprint(got) != want {
			t.Fatalf("Keys(%q) = %v, want %s", prefix, got, want)
		}
	}
	mustPut(t, s, "meta", []byte("m"))
	mustPut(t, s, "tid/a", []byte("a"))
	mustPut(t, s, "tid/a", []byte("a2")) // an overwrite adds no key
	mustPut(t, s, "tid/b", []byte("b"))
	for _, k := range []string{"tid/a", "tid/b", "tid/a"} { // the last is absent
		if err := s.Delete(k); err != nil {
			t.Fatalf("Delete(%q): %v", k, err)
		}
	}
	keys("tid/", "[]")
	keys("tid/a", "[]")
	mustPut(t, s, "tid/c", []byte("c"))
	keys("tid/", "[tid/c]")

	b, ok := diskio.AsBatcher(s)
	if !ok {
		return
	}
	if err := b.Apply([]diskio.KV{{Key: "staging/1", Value: []byte("x")}, {Key: "staging/2"}}, nil); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	keys("staging/", "[staging/1 staging/2]")
	if err := b.Apply([]diskio.KV{{Key: "tid/d", Value: []byte("d")}}, []string{"staging/1", "staging/2", "staging/3"}); err != nil {
		t.Fatalf("Apply of deletes: %v", err)
	}
	keys("staging/", "[]")
	keys("tid/", "[tid/c tid/d]")
	mustPut(t, s, "staging/4", []byte("y"))
	keys("staging/", "[staging/4]")
	keys("", "[meta staging/4 tid/c tid/d]")
}

func testLargeValue(t *testing.T, s diskio.Store) {
	val := make([]byte, 1<<20) // 1 MiB
	for i := range val {
		val[i] = byte(i * 31)
	}
	mustPut(t, s, "large", val)
	got := mustGet(t, s, "large")
	if !bytes.Equal(got, val) {
		t.Fatalf("large value mangled (%d bytes back, want %d)", len(got), len(val))
	}
	n, err := s.Size("large")
	if err != nil {
		t.Fatalf("Size: %v", err)
	}
	if n != int64(len(val)) {
		t.Fatalf("Size = %d, want %d", n, len(val))
	}
}

func testValueAliasing(t *testing.T, s diskio.Store) {
	val := []byte("original")
	mustPut(t, s, "alias", val)
	val[0] = 'X' // mutating the caller's slice must not reach the store
	if got := mustGet(t, s, "alias"); string(got) != "original" {
		t.Fatalf("store aliased the Put slice: Get = %q", got)
	}
	got := mustGet(t, s, "alias")
	got[0] = 'Y' // mutating a returned slice must not reach the store
	if again := mustGet(t, s, "alias"); string(again) != "original" {
		t.Fatalf("store aliased the Get slice: Get = %q", again)
	}
}

func testManyKeys(t *testing.T, s diskio.Store) {
	const n = 200
	want := make([]string, 0, n)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("many/%04d", i)
		mustPut(t, s, k, []byte(k))
		want = append(want, k)
	}
	keys, err := s.Keys("many/")
	if err != nil {
		t.Fatalf("Keys: %v", err)
	}
	if len(keys) != n {
		t.Fatalf("Keys returned %d keys, want %d", len(keys), n)
	}
	for i, k := range keys {
		if k != want[i] {
			t.Fatalf("Keys[%d] = %q, want %q", i, k, want[i])
		}
	}
	for _, k := range []string{"many/0000", "many/0123", "many/0199"} {
		if got := mustGet(t, s, k); string(got) != k {
			t.Fatalf("Get(%q) = %q", k, got)
		}
	}
}

func testConcurrentReaders(t *testing.T, s diskio.Store) {
	const keys = 8
	vals := make([][]byte, keys)
	for i := range vals {
		vals[i] = bytes.Repeat([]byte{byte('a' + i)}, 512+i)
		mustPut(t, s, fmt.Sprintf("cr/%d", i), vals[i])
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := (g + i) % keys
				got, err := s.Get(fmt.Sprintf("cr/%d", k))
				if err != nil {
					errs <- fmt.Errorf("Get cr/%d: %w", k, err)
					return
				}
				if !bytes.Equal(got, vals[k]) {
					errs <- fmt.Errorf("cr/%d: got %d bytes of %q, want %d of %q",
						k, len(got), got[:1], len(vals[k]), vals[k][:1])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func testConcurrentReadWrite(t *testing.T, s diskio.Store) {
	// One writer cycles a key through versions; readers must always see a
	// complete version — never a torn mix, never a disappearance.
	versions := make([][]byte, 4)
	for v := range versions {
		versions[v] = bytes.Repeat([]byte{byte('0' + v)}, 256*(v+1))
	}
	mustPut(t, s, "rw", versions[0])
	done := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				got, err := s.Get("rw")
				if err != nil {
					errs <- fmt.Errorf("Get rw: %w", err)
					return
				}
				ok := false
				for _, v := range versions {
					if bytes.Equal(got, v) {
						ok = true
						break
					}
				}
				if !ok {
					errs <- fmt.Errorf("rw: read %d bytes that match no written version", len(got))
					return
				}
			}
		}()
	}
	for i := 1; i < 40; i++ {
		mustPut(t, s, "rw", versions[i%len(versions)])
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// Writers that share keys each read back a whole value some writer put.
func testConcurrentWriters(t *testing.T, s diskio.Store) {
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := []string{"w/a", "w/b", "w/c", "w/d"}[g%4]
			for i := 0; i < 25; i++ {
				if err := s.Put(key, []byte{byte(g), byte(i)}); err != nil {
					errs <- fmt.Errorf("Put %s: %w", key, err)
					return
				}
				if got, err := s.Get(key); err != nil || len(got) != 2 || int(got[0])%4 != g%4 {
					errs <- fmt.Errorf("Get %s = %v, %v; want a value a writer of %s put", key, got, err, key)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// runBatchTests is the diskio.Batcher contract, skipped for stores without
// the capability.
func runBatchTests(t *testing.T, factory Factory) {
	t.Helper()
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, s diskio.Store, b diskio.Batcher)
	}{
		{"BatchPutsAndDeletes", testBatchPutsAndDeletes},
		{"BatchEmpty", testBatchEmpty},
		{"BatchRejectedWhole", testBatchRejectedWhole},
		{"BatchValueAliasing", testBatchValueAliasing},
		{"BatchStats", testBatchStats},
		{"BatchVisibleTogether", testBatchVisibleTogether},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := factory(t)
			b, ok := diskio.AsBatcher(s)
			if !ok {
				t.Skipf("%T has no atomic batch", s)
			}
			tc.run(t, s, b)
		})
	}
}

func dumpKeys(t *testing.T, s diskio.Store) string {
	t.Helper()
	keys, err := s.Keys("")
	if err != nil {
		t.Fatalf("Keys: %v", err)
	}
	var sb bytes.Buffer
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s=%s ", k, mustGet(t, s, k))
	}
	return sb.String()
}

func testBatchPutsAndDeletes(t *testing.T, s diskio.Store, b diskio.Batcher) {
	mustPut(t, s, "old/1", []byte("x"))
	mustPut(t, s, "old/2", []byte("y"))
	mustPut(t, s, "kept", []byte("v1"))
	puts := []diskio.KV{{Key: "new/b", Value: []byte("B")}, {Key: "kept", Value: []byte("v2")}, {Key: "new/a", Value: nil}}
	if err := b.Apply(puts, []string{"old/1", "never-existed"}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if got, want := dumpKeys(t, s), "kept=v2 new/a= new/b=B old/2=y "; got != want {
		t.Fatalf("store after Apply = %q, want %q", got, want)
	}
	if n, err := s.Size("new/b"); err != nil || n != 1 {
		t.Fatalf("Size(new/b) = %d, %v", n, err)
	}
	if err := b.Apply(nil, []string{"kept", "old/2"}); err != nil {
		t.Fatalf("Apply of deletes only: %v", err)
	}
	if got, want := dumpKeys(t, s), "new/a= new/b=B "; got != want {
		t.Fatalf("store after deletes = %q, want %q", got, want)
	}
}

func testBatchEmpty(t *testing.T, s diskio.Store, b diskio.Batcher) {
	mustPut(t, s, "k", []byte("v"))
	before := s.Stats()
	if err := b.Apply(nil, nil); err != nil {
		t.Fatalf("empty Apply: %v", err)
	}
	if err := b.Apply([]diskio.KV{}, []string{}); err != nil {
		t.Fatalf("empty Apply: %v", err)
	}
	if got := dumpKeys(t, s); got != "k=v " {
		t.Fatalf("store after empty Apply = %q", got)
	}
	if after := s.Stats(); after.Writes != before.Writes || after.BytesWritten != before.BytesWritten {
		t.Fatalf("empty Apply counted writes: %+v -> %+v", before, after)
	}
}

func testBatchRejectedWhole(t *testing.T, s diskio.Store, b diskio.Batcher) {
	mustPut(t, s, "victim", []byte("alive"))
	kv := func(k string) diskio.KV { return diskio.KV{Key: k, Value: []byte("new")} }
	for name, batch := range map[string]struct {
		puts []diskio.KV
		dels []string
	}{
		"empty put key":       {[]diskio.KV{kv("a"), kv("")}, []string{"victim"}},
		"empty delete key":    {[]diskio.KV{kv("a")}, []string{"victim", ""}},
		"key put twice":       {[]diskio.KV{kv("a"), kv("b"), kv("a")}, []string{"victim"}},
		"key deleted twice":   {[]diskio.KV{kv("a")}, []string{"victim", "victim"}},
		"key put and deleted": {[]diskio.KV{kv("a"), kv("victim")}, []string{"victim"}},
	} {
		if err := b.Apply(batch.puts, batch.dels); err == nil {
			t.Fatalf("%s: Apply succeeded, want the batch rejected", name)
		}
		if got := dumpKeys(t, s); got != "victim=alive " {
			t.Fatalf("%s: a rejected batch left %q behind", name, got)
		}
	}
}

func testBatchValueAliasing(t *testing.T, s diskio.Store, b diskio.Batcher) {
	val := []byte("original")
	if err := b.Apply([]diskio.KV{{Key: "alias", Value: val}}, nil); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	val[0] = 'X' // mutating the caller's slice must not reach the store
	if got := mustGet(t, s, "alias"); string(got) != "original" {
		t.Fatalf("store aliased the Apply slice: Get = %q", got)
	}
}

// testBatchStats: a batch is accounted like the Puts it replaces — one write
// per put, with the payload bytes a Put of that value counts.
func testBatchStats(t *testing.T, s diskio.Store, b diskio.Batcher) {
	vals := [][]byte{[]byte("a"), bytes.Repeat([]byte("b"), 300), nil, bytes.Repeat([]byte("c"), 5000)}
	before := s.Stats()
	for i, v := range vals {
		mustPut(t, s, fmt.Sprintf("single/%d", i), v)
	}
	mid := s.Stats()
	puts := make([]diskio.KV, len(vals))
	for i, v := range vals {
		puts[i] = diskio.KV{Key: fmt.Sprintf("batch/%d", i), Value: v}
	}
	if err := b.Apply(puts, nil); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	after := s.Stats()
	if got, want := after.Writes-mid.Writes, mid.Writes-before.Writes; got != want || want != int64(len(vals)) {
		t.Fatalf("Apply of %d puts counted %d writes, the same Puts %d", len(vals), got, want)
	}
	if got, want := after.BytesWritten-mid.BytesWritten, mid.BytesWritten-before.BytesWritten; got != want {
		t.Fatalf("Apply counted %d bytes written, the same Puts %d", got, want)
	}
}

// testBatchVisibleTogether hammers a store with readers while batches flip
// it between versions. Batch v writes v to two fixed keys, and to a third key
// named after v's parity while deleting the other parity's key, so every
// successful Get returns the version current at that moment, and what one
// reader sees can never go backwards — unless a batch was half visible, in
// some order of its keys (the readers walk them in both directions). Every
// eighth read is a listing instead, which must hold exactly one of the two
// parity keys: both, or neither, would be half a batch.
func testBatchVisibleTogether(t *testing.T, s diskio.Store, b diskio.Batcher) {
	// The writer keeps going until the readers have had a real chance to
	// catch it: a fast store takes thousands of batches, a flushing one few.
	const minVersions, minReads, maxVersions = 60, 20000, 1 << 20
	keys := []string{"vt/first", "vt/even", "vt/odd", "vt/last"}
	apply := func(v int) error {
		val := []byte(fmt.Sprintf("%08d", v))
		side, other := "vt/even", "vt/odd"
		if v%2 == 1 {
			side, other = other, side
		}
		return b.Apply([]diskio.KV{{Key: "vt/last", Value: val}, {Key: side, Value: val}, {Key: "vt/first", Value: val}},
			[]string{other})
	}
	if err := apply(0); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	done := make(chan struct{})
	errs := make(chan error, 4)
	var reads atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			seen := ""
			for i := g; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				reads.Add(1)
				if i%8 == 0 {
					ls, err := s.Keys("vt/")
					if err != nil {
						errs <- fmt.Errorf("Keys: %w", err)
						return
					}
					if len(ls) != 3 || (ls[0] == "vt/even") == (ls[2] == "vt/odd") {
						errs <- fmt.Errorf("Keys(vt/) = %v: a batch was half visible", ls)
						return
					}
					continue
				}
				k := i % len(keys)
				if (i/len(keys))%2 == 1 {
					k = len(keys) - 1 - k
				}
				got, err := s.Get(keys[k])
				if errors.Is(err, diskio.ErrNotFound) && (k == 1 || k == 2) {
					continue
				}
				if err != nil {
					errs <- fmt.Errorf("Get %s: %w", keys[k], err)
					return
				}
				if string(got) < seen {
					errs <- fmt.Errorf("%s holds version %s after version %s was visible: a batch was half applied", keys[k], got, seen)
					return
				}
				seen = string(got)
			}
		}(g)
	}
	for v := 1; v <= maxVersions && (v <= minVersions || reads.Load() < minReads) && len(errs) == 0; v++ {
		if err := apply(v); err != nil {
			t.Errorf("Apply: %v", err)
			break
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
