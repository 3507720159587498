//go:build !race

// The race detector's instrumentation allocates on its own account.

package demon

import (
	"runtime"
	"testing"
)

// TestWindowStepAllocations: once warm, a window miner of the window-mem
// shape allocates at most a ceiling of bytes per block, ingest included —
// the fresh slot is built in the memory of the model that expired, not from
// nothing.
func TestWindowStepAllocations(t *testing.T) {
	const (
		warm     = 2 * windowStepW
		measured = 20
		ceiling  = 5 << 19 // bytes per block; 4.4 MB before the fresh slot reused memory
	)
	blocks := windowStepBlocks(t, warm+measured)
	m := windowStepMiner(t)
	for _, rows := range blocks[:warm] {
		if _, err := m.AddBlock(rows); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, rows := range blocks[warm:] {
		if _, err := m.AddBlock(rows); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perBlock := (after.TotalAlloc - before.TotalAlloc) / measured
	t.Logf("%d bytes allocated per block", perBlock)
	if perBlock > ceiling {
		t.Errorf("%d bytes allocated per block, ceiling %d", perBlock, ceiling)
	}
}
