//go:build !race

// The race detector's shadow memory and instrumented allocations make a
// byte ceiling meaningless under it.

package kvfile

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestOpenAllocationBounded: open sizes its index from log headers that no
// checksum has vouched for yet, so a file of many tiny overwrites of one key
// — every record CRC-valid, one key live — must not buy an index sized by
// its record count. Open allocates at most 8× the file's size.
func TestOpenAllocationBounded(t *testing.T) {
	const records = 200_000
	rec, _ := appendRecord(kindPut, "k", nil)
	data := append(make([]byte, superblockSize), bytes.Repeat(rec, records)...)
	copy(data, encodeSlot(2, int64(len(data))))
	path := filepath.Join(t.TempDir(), "overwrites.kv")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s, err := Open(path, Options{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("file %d bytes, Open allocated %d bytes (%.2f×)", len(data), alloc, float64(alloc)/float64(len(data)))
	if alloc > 8*uint64(len(data)) {
		t.Errorf("Open allocated %d bytes for a %d-byte file, ceiling 8×", alloc, len(data))
	}
}
