package demon

import (
	"testing"

	"github.com/demon-mining/demon/internal/quest"
)

// The shape of the benchmark's window-mem workload: GEMM at w = 4 over the
// T10-style Quest stream in 2,000-transaction blocks, ECUT counting, two
// workers, an in-memory store.
const (
	windowStepSpec  = "1M.10L.1I.2pats.4plen"
	windowStepSize  = 2000
	windowStepW     = 4
	windowStepMinSp = 0.0175
)

// windowStepMiner returns a window miner of the window-mem shape.
func windowStepMiner(tb testing.TB) *ItemsetWindowMiner {
	tb.Helper()
	m, err := NewItemsetWindowMiner(ItemsetWindowMinerConfig{MinSupport: windowStepMinSp, Strategy: ECUT,
		WindowSize: windowStepW, Workers: 2})
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// windowStepBlocks draws n blocks of the window-mem stream as AddBlock rows.
func windowStepBlocks(tb testing.TB, n int) [][][]Item {
	return questBlocks(tb, windowStepSpec, n, windowStepSize)
}

// questBlocks draws n blocks of size transactions from the Quest stream of
// spec, seed 1, as AddBlock rows.
func questBlocks(tb testing.TB, spec string, n, size int) [][][]Item {
	tb.Helper()
	cfg, err := quest.ParseSpec(spec)
	if err != nil {
		tb.Fatal(err)
	}
	cfg.Seed = 1
	gen, err := quest.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	out := make([][][]Item, n)
	for b := range out {
		txs := gen.Block(1, size).Txs
		rows := make([][]Item, len(txs))
		for i, tx := range txs {
			rows[i] = tx.Items
		}
		out[b] = rows
	}
	return out
}

// BenchmarkWindowStep times one AddBlock of a warm window miner of the
// window-mem shape: ingest and the GEMM step over the w slots. The stream
// cycles through a fixed set of blocks, each added again as a new block.
func BenchmarkWindowStep(b *testing.B) {
	blocks := windowStepBlocks(b, 4*windowStepW)
	m := windowStepMiner(b)
	for _, rows := range blocks[:2*windowStepW] {
		if _, err := m.AddBlock(rows); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.AddBlock(blocks[i%len(blocks)]); err != nil {
			b.Fatal(err)
		}
	}
}
