// Package allocbound holds decoders of stored and wire bytes to the
// allocation half of their contract: decoding n bytes allocates at most
// 64 KiB + 256 B per input byte, so no length field is believed on its own
// say-so. The fuzzers call Check on every input.
//
// runtime.ReadMemStats reads the exact total but stops the world, twice per
// input. Check reads the same statistic through runtime/metrics, which does
// not: it counts small objects when their span leaves a P's cache, so it can
// run a span per size class ahead of or behind the decode, while a large
// object counts at once. A reading over the bound is confirmed by running the
// decode again between two exact readings, so a cheap reading that ran ahead
// fails nothing.
package allocbound

import (
	"runtime"
	"runtime/metrics"
	"testing"
)

// limit is the most a decoder may allocate for n input bytes.
func limit(n int) uint64 { return 1<<16 + 256*uint64(n) }

// Check runs decode, which decodes n bytes and must be deterministic, and
// fails t if it allocated more than 64 KiB + 256 B per byte.
func Check(t testing.TB, n int, decode func()) {
	t.Helper()
	before := heapAllocs()
	decode()
	if heapAllocs()-before <= limit(n) {
		return
	}
	var b, a runtime.MemStats
	runtime.ReadMemStats(&b)
	decode()
	runtime.ReadMemStats(&a)
	if alloc := a.TotalAlloc - b.TotalAlloc; alloc > limit(n) {
		t.Fatalf("decoding %d bytes allocated %d, limit %d", n, alloc, limit(n))
	}
}

// heapAllocs returns the bytes allocated on the heap so far, without
// stopping the world.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
