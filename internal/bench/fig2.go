package bench

import (
	"fmt"
	"io"
	"time"

	"github.com/demon-mining/demon/internal/diskio"
)

// Fig2Config parameterizes Experiment 1 (Figure 2): counting time versus the
// number of itemsets |S| for ECUT, ECUT+ and PT-Scan.
type Fig2Config struct {
	// Scale multiplies the paper's dataset sizes (default 0.1).
	Scale float64
	// Datasets are the quest specs; the paper uses the 2M and 4M variants
	// of *.20L.1I.4pats.4plen.
	Datasets []string
	// Sizes are the |S| values swept; the paper uses 5..180.
	Sizes []int
	// MinSupport is the mining threshold (paper: 0.01).
	MinSupport float64
	// Seed fixes data generation and border sampling.
	Seed int64
}

// DefaultFig2Config returns the paper's parameters at p's scale and seed.
func DefaultFig2Config(p Params) Fig2Config {
	return Fig2Config{
		Scale:      p.Scale,
		Datasets:   []string{"2M.20L.1I.4pats.4plen", "4M.20L.1I.4pats.4plen"},
		Sizes:      []int{5, 10, 20, 40, 75, 120, 180},
		MinSupport: 0.01,
		Seed:       p.Seed,
	}
}

// StrategyIO is the I/O a counting invocation performed, from the store's
// byte accounting — the quantity the Section 3.1.1 ECUT-vs-PT-Scan argument
// turns on, kept in the JSON artifact rather than only on stdout.
type StrategyIO struct {
	BytesRead    int64 `json:"bytes_read"`
	BytesWritten int64 `json:"bytes_written"`
	Reads        int64 `json:"reads"`
	Writes       int64 `json:"writes"`
}

func ioDelta(after, before diskio.Stats) StrategyIO {
	return StrategyIO{
		BytesRead:    after.BytesRead - before.BytesRead,
		BytesWritten: after.BytesWritten - before.BytesWritten,
		Reads:        after.Reads - before.Reads,
		Writes:       after.Writes - before.Writes,
	}
}

// Fig2Row is one measured point of Figure 2.
type Fig2Row struct {
	Dataset  string
	NumSets  int
	PTScan   time.Duration
	ECUT     time.Duration
	ECUTPlus time.Duration
	// PTScanIO/ECUTIO/ECUTPlusIO are the per-strategy store I/O deltas of
	// the counting call.
	PTScanIO   StrategyIO
	ECUTIO     StrategyIO
	ECUTPlusIO StrategyIO
}

// Figure2 runs Experiment 1 and returns one row per (dataset, |S|) pair.
func Figure2(cfg Fig2Config) ([]Fig2Row, error) {
	if cfg.Scale <= 0 {
		cfg.Scale = 0.1
	}
	var rows []Fig2Row
	for _, spec := range cfg.Datasets {
		env, err := NewCountEnv(spec, cfg.Scale, cfg.MinSupport, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("bench: figure 2 setup for %s: %w", spec, err)
		}
		for _, n := range cfg.Sizes {
			sets := env.CandidateSet(n)
			if len(sets) == 0 {
				return nil, fmt.Errorf("bench: figure 2: dataset %s has an empty negative border", spec)
			}
			row := Fig2Row{Dataset: spec, NumSets: len(sets)}
			for _, c := range env.Counters() {
				before := env.Store.Stats()
				start := time.Now()
				if _, err := c.Count(sets, env.BlockIDs); err != nil {
					return nil, fmt.Errorf("bench: figure 2 counting with %s: %w", c.Name(), err)
				}
				elapsed := time.Since(start)
				io := ioDelta(env.Store.Stats(), before)
				switch c.Name() {
				case "PT-Scan":
					row.PTScan, row.PTScanIO = elapsed, io
				case "ECUT":
					row.ECUT, row.ECUTIO = elapsed, io
				case "ECUT+":
					row.ECUTPlus, row.ECUTPlusIO = elapsed, io
				}
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// WriteFig2 renders the rows as the Figure 2 series, with the per-strategy
// bytes fetched alongside the times (the I/O side of the §3.1.1 claim).
func WriteFig2(w io.Writer, rows []Fig2Row) {
	fmt.Fprintln(w, "Figure 2: counting time vs #itemsets (seconds; MB read)")
	fmt.Fprintf(w, "%-24s %9s %12s %12s %12s %10s %10s %10s\n",
		"dataset", "|S|", "PT-Scan", "ECUT", "ECUT+", "PT:MB", "ECUT:MB", "ECUT+:MB")
	const mb = 1 << 20
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s %9d %12.4f %12.4f %12.4f %10.2f %10.2f %10.2f\n",
			r.Dataset, r.NumSets, r.PTScan.Seconds(), r.ECUT.Seconds(), r.ECUTPlus.Seconds(),
			float64(r.PTScanIO.BytesRead)/mb, float64(r.ECUTIO.BytesRead)/mb, float64(r.ECUTPlusIO.BytesRead)/mb)
	}
}
