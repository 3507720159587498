package bench

import (
	"fmt"
	"io"
)

// Fig3Config parameterizes the Figure 3 table: the extra disk space consumed
// by materialized frequent-2-itemset TID-lists, as a percentage of the
// dataset size, at several minimum support thresholds.
type Fig3Config struct {
	Scale    float64
	Datasets []string
	// Supports are the κ values of the table (paper: 0.008, 0.010, 0.012).
	Supports []float64
	Seed     int64
}

// DefaultFig3Config returns the paper's parameters at p's scale and seed.
func DefaultFig3Config(p Params) Fig3Config {
	return Fig3Config{
		Scale:    p.Scale,
		Datasets: []string{"2M.20L.1I.4pats.4plen"},
		Supports: []float64{0.008, 0.010, 0.012},
		Seed:     p.Seed,
	}
}

// Fig3Row is one row of the Figure 3 table.
type Fig3Row struct {
	Dataset string
	Support float64
	// ExtraSpacePct is the pair-list entry volume as a percentage of the
	// item-list entry volume (= the dataset's transactional volume).
	ExtraSpacePct float64
	// Freq2 is the number of frequent 2-itemsets materialized.
	Freq2 int
}

// Figure3 measures the ECUT+ space overhead.
func Figure3(cfg Fig3Config) ([]Fig3Row, error) {
	if cfg.Scale <= 0 {
		cfg.Scale = 0.1
	}
	var rows []Fig3Row
	for _, spec := range cfg.Datasets {
		for _, k := range cfg.Supports {
			env, err := NewCountEnv(spec, cfg.Scale, k, cfg.Seed)
			if err != nil {
				return nil, fmt.Errorf("bench: figure 3 setup for %s κ=%v: %w", spec, k, err)
			}
			freq2 := 0
			for key := range env.Lattice.Frequent {
				if len(key.Itemset()) == 2 {
					freq2++
				}
			}
			rows = append(rows, Fig3Row{
				Dataset:       spec,
				Support:       k,
				ExtraSpacePct: 100 * float64(env.PairBudgetUsed) / float64(env.ItemEntries),
				Freq2:         freq2,
			})
		}
	}
	return rows, nil
}

// WriteFig3 renders the rows as the Figure 3 table.
func WriteFig3(w io.Writer, rows []Fig3Row) {
	fmt.Fprintln(w, "Figure 3: % extra space for frequent 2-itemset TID-lists")
	fmt.Fprintf(w, "%-24s %8s %8s %14s\n", "dataset", "κ", "|L2|", "extra space %")
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s %8.3f %8d %14.1f\n", r.Dataset, r.Support, r.Freq2, r.ExtraSpacePct)
	}
}
