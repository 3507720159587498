package demon

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"github.com/demon-mining/demon/internal/quest"
)

// monitorProcessBlocks draws blocks of n transactions from two seeded Quest
// processes in the given order: 'a' draws the next block of the first, 'b'
// of the second.
func monitorProcessBlocks(t testing.TB, order string, numItems, avgTxLen, n int) [][][]Item {
	t.Helper()
	var gens [2]*quest.Generator
	for i := range gens {
		g, err := quest.New(quest.Config{NumTx: len(order) * n, AvgTxLen: avgTxLen, NumItems: numItems,
			NumPatterns: numItems / 2, AvgPatternLen: 4, Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		gens[i] = g
	}
	out := make([][][]Item, len(order))
	for b, c := range order {
		blk := gens[c-'a'].Block(BlockID(b+1), n)
		rows := make([][]Item, len(blk.Txs))
		for i, tx := range blk.Txs {
			rows[i] = append([]Item(nil), tx.Items...)
		}
		out[b] = rows
	}
	return out
}

// monitorDigest is a SHA-256 over everything a monitor answers: its maximal
// patterns, every maintained sequence, and the cached deviation of every
// pair of blocks, scores and p-values as float bits.
func monitorDigest(m *Monitor) string {
	h := sha256.New()
	fmt.Fprintln(h, m.Patterns())
	fmt.Fprintln(h, m.AllSequences())
	for a := BlockID(1); a <= m.T(); a++ {
		for b := a + 1; b <= m.T(); b++ {
			score, p, ok := m.Similarity(a, b)
			fmt.Fprintf(h, "%d %d %t %x %x\n", a, b, ok, math.Float64bits(score), math.Float64bits(p))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestMonitorGolden pins the monitor's answers bit for bit over seeded
// Quest blocks from two alternating processes, for both significance modes
// with and without a window, and requires a monitor resumed from the store
// to answer the same.
func TestMonitorGolden(t *testing.T) {
	blocks := monitorProcessBlocks(t, "aabaabba", 50, 5, 150)
	for _, c := range []struct {
		bootstrap bool
		window    int
		want      string
	}{
		{false, 0, "e05cfb18dc0115edc20836605b2d36f67ae676f42d2d2fa7676c4c84db246364"},
		{false, 3, "1be17dfbdf59de81b13c4a5b4684bc6d62c25ee9884ceb035c978d3cca1812ad"},
		{true, 0, "462c99a8d640d952df989446f879287cbc7b0b88670e88079f33efc097721a10"},
		{true, 3, "fb382193aa879b476c27dd87ae9f781cd7e4adf89b89d0f2c79abc5cad1b3f62"},
	} {
		t.Run(fmt.Sprintf("bootstrap=%t/window=%d", c.bootstrap, c.window), func(t *testing.T) {
			cfg := MonitorConfig{MinSupport: 0.05, Alpha: 0.05, Window: c.window,
				Bootstrap: c.bootstrap, Resamples: 20, Seed: 5, Store: NewMemStore()}
			m, err := NewMonitor(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, rows := range blocks {
				if _, err := m.AddBlock(rows); err != nil {
					t.Fatal(err)
				}
			}
			if got := monitorDigest(m); got != c.want {
				t.Errorf("digest %s, want %s", got, c.want)
			}
			r, err := ResumeMonitor(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := monitorDigest(r); got != c.want {
				t.Errorf("resumed digest %s, want %s", got, c.want)
			}
		})
	}
}

// The monitor benchmarks' shape: Quest blocks over 1,000 items of 2,000
// transactions each, mined at κ = 1 %, in memory; the step measured is the
// one at t = 16.
const (
	monitorBenchItems = 1000
	monitorBenchTxs   = 2000
	monitorBenchT     = 16
)

func monitorBenchBlocks(b *testing.B) [][][]Item {
	gen, err := quest.New(quest.Config{NumTx: monitorBenchT * monitorBenchTxs, AvgTxLen: 10,
		NumItems: monitorBenchItems, NumPatterns: 200, AvgPatternLen: 4, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	out := make([][][]Item, monitorBenchT)
	for i := range out {
		blk := gen.Block(BlockID(i+1), monitorBenchTxs)
		rows := make([][]Item, len(blk.Txs))
		for j, tx := range blk.Txs {
			rows[j] = append([]Item(nil), tx.Items...)
		}
		out[i] = rows
	}
	return out
}

// BenchmarkMonitorStep times one Monitor.AddBlock at t = 16: the new block
// against the fifteen before it. The fifteen earlier steps run untimed.
func BenchmarkMonitorStep(b *testing.B) {
	blocks := monitorBenchBlocks(b)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, err := NewMonitor(MonitorConfig{MinSupport: 0.01, Alpha: 0.01})
		if err != nil {
			b.Fatal(err)
		}
		for _, rows := range blocks[:monitorBenchT-1] {
			if _, err := m.AddBlock(rows); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if _, err := m.AddBlock(blocks[monitorBenchT-1]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResumeMonitor times ResumeMonitor over a store holding sixteen
// blocks: the replay that rebuilds the detector.
func BenchmarkResumeMonitor(b *testing.B) {
	cfg := MonitorConfig{MinSupport: 0.01, Alpha: 0.01, Store: NewMemStore()}
	m, err := NewMonitor(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, rows := range monitorBenchBlocks(b) {
		if _, err := m.AddBlock(rows); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := ResumeMonitor(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if r.T() != monitorBenchT {
			b.Fatalf("resumed at T = %d", r.T())
		}
	}
}
