package bench

import (
	"fmt"
	"io"

	"github.com/demon-mining/demon/internal/focus"
	"github.com/demon-mining/demon/internal/itemset"
	"github.com/demon-mining/demon/internal/pattern"
	"github.com/demon-mining/demon/internal/proxysim"
)

// GranularityConfig parameterizes the block-granularity experiment — the
// DEMON conclusion's future-work items made concrete: how the granularity
// affects the discovered patterns, and which granularity a simple
// coverage-minus-fragmentation score would select automatically.
type GranularityConfig struct {
	Granularities   []int
	MinSupport      float64
	Alpha           float64
	RequestsPerHour int
	Seed            int64
}

// DefaultGranularityConfig returns the experiment defaults at p's seed; the
// trace does not scale.
func DefaultGranularityConfig(p Params) GranularityConfig {
	return GranularityConfig{
		Granularities:   []int{4, 6, 8, 12, 24},
		MinSupport:      0.01,
		Alpha:           0.01,
		RequestsPerHour: 400,
		Seed:            p.Seed,
	}
}

// GranularityRow summarizes pattern detection at one granularity.
type GranularityRow struct {
	GranularityHours int
	Blocks           int
	// MultiPatterns is the number of maximal compact sequences with at
	// least two blocks.
	MultiPatterns int
	// Coverage is the fraction of blocks inside some multi-block pattern.
	Coverage float64
	// Score is the selection heuristic (coverage − fragmentation).
	Score float64
	// Selected marks the granularity the heuristic picks.
	Selected bool
}

// Granularity runs pattern detection at every granularity and scores each.
func Granularity(cfg GranularityConfig) ([]GranularityRow, error) {
	trace := proxysim.Generate(proxysim.Config{Seed: cfg.Seed, RequestsPerHour: cfg.RequestsPerHour})
	var rows []GranularityRow
	for _, g := range cfg.Granularities {
		blocks, _, err := trace.Segment(g)
		if err != nil {
			return nil, err
		}
		differ := focus.ItemsetDiffer{MinSupport: cfg.MinSupport}
		det, err := pattern.New[*itemset.TxBlock](differ, cfg.Alpha, 0)
		if err != nil {
			return nil, err
		}
		n := 0
		for _, b := range blocks {
			if b.Len() == 0 {
				continue
			}
			n++
			if _, err := det.AddBlock(b.ID, b); err != nil {
				return nil, fmt.Errorf("bench: granularity %dh block %d: %w", g, b.ID, err)
			}
		}
		maximal := det.Maximal()
		covered := make(map[int64]bool)
		multi := 0
		for _, s := range maximal {
			if len(s) < 2 {
				continue
			}
			multi++
			for _, id := range s {
				covered[int64(id)] = true
			}
		}
		rows = append(rows, GranularityRow{
			GranularityHours: g,
			Blocks:           n,
			MultiPatterns:    multi,
			Coverage:         float64(len(covered)) / float64(max(n, 1)),
			Score:            pattern.Score(maximal, n),
		})
	}
	best := -1
	for i, r := range rows {
		if best < 0 || r.Score > rows[best].Score {
			best = i
		}
	}
	if best >= 0 {
		rows[best].Selected = true
	}
	return rows, nil
}

// WriteGranularity renders the rows.
func WriteGranularity(w io.Writer, rows []GranularityRow) {
	fmt.Fprintln(w, "Extension: block-granularity selection (coverage − fragmentation)")
	fmt.Fprintf(w, "%12s %8s %10s %10s %8s %9s\n",
		"granularity", "blocks", "patterns", "coverage", "score", "selected")
	for _, r := range rows {
		sel := ""
		if r.Selected {
			sel = "  <==="
		}
		fmt.Fprintf(w, "%10dhr %8d %10d %10.3f %8.3f%s\n",
			r.GranularityHours, r.Blocks, r.MultiPatterns, r.Coverage, r.Score, sel)
	}
}
