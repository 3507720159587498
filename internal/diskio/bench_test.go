package diskio

import (
	"fmt"
	"testing"
)

// BenchmarkRecover runs Recover over a clean MemStore at the itemset-mem
// workload's shape: 65 blocks of 1,000 TID-list keys, plus one transaction
// block key and one checkpoint key per block. Nothing is staged, so this is
// the listing every open pays.
func BenchmarkRecover(b *testing.B) {
	s := NewMemStore()
	val := make([]byte, 32)
	for blk := 0; blk < 65; blk++ {
		for i := 0; i < 1000; i++ {
			if err := s.Put(fmt.Sprintf("tid/%d/i%d", blk, i), val); err != nil {
				b.Fatal(err)
			}
		}
		for _, k := range []string{fmt.Sprintf("txblock/%d", blk), fmt.Sprintf("checkpoint/itemset-miner/model-%04d", blk)} {
			if err := s.Put(k, val); err != nil {
				b.Fatal(err)
			}
		}
	}
	for b.Loop() {
		rep, err := Recover(s)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Clean() {
			b.Fatalf("recovered a clean store: %+v", rep)
		}
	}
}
