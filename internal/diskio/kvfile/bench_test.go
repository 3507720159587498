package kvfile

import (
	"fmt"
	"path/filepath"
	"testing"

	"github.com/demon-mining/demon/internal/diskio"
)

// benchFile writes a store at the shape of the itemset-kvfile workload's
// log: 65 blocks of 1,000 TID-list keys, each block one batch frame, about
// 3.5 MB in all.
func benchFile(b *testing.B) string {
	b.Helper()
	path := filepath.Join(b.TempDir(), "bench.kv")
	s, err := Open(path, Options{SyncEvery: 1 << 30, NoAutoCompact: true})
	if err != nil {
		b.Fatal(err)
	}
	val := make([]byte, 32)
	for blk := 0; blk < 65; blk++ {
		puts := make([]diskio.KV, 1000)
		for i := range puts {
			puts[i] = diskio.KV{Key: fmt.Sprintf("tid/%08d/i%d", blk, i), Value: val}
		}
		if err := s.Apply(puts, nil); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	return path
}

// BenchmarkOpen reopens the workload-shaped log: the read, the header walk
// that sizes the index, and the verifying scan that fills it.
func BenchmarkOpen(b *testing.B) {
	path := benchFile(b)
	for b.Loop() {
		s, err := Open(path, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKeysPrefix lists a reopened store of the workload's shape: the
// staging prefix a recovery asks for, which matches nothing, and one
// block's 1,000 keys.
func BenchmarkKeysPrefix(b *testing.B) {
	s, err := Open(benchFile(b), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	for _, prefix := range []string{diskio.StagingPrefix, "tid/00000032/"} {
		b.Run(prefix, func(b *testing.B) {
			for b.Loop() {
				if _, err := s.Keys(prefix); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
