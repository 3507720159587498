package bench

import (
	"fmt"
	"io"
	"time"

	"github.com/demon-mining/demon/internal/birch"
	"github.com/demon-mining/demon/internal/pointgen"
)

// Fig8Config parameterizes the BIRCH vs BIRCH+ experiment (Figure 8): the
// time to obtain an updated cluster model when a second block of points is
// added, for the non-incremental baseline (re-cluster everything) and the
// incremental BIRCH+ (absorb only the new block).
type Fig8Config struct {
	Scale float64
	// FirstSpec is the first block (paper: 1M.50c.5d).
	FirstSpec string
	// SecondSizes are the second block's point counts before scaling
	// (paper: 100K–800K).
	SecondSizes []int
	// Noise is the uniform noise fraction (paper: 2%).
	Noise float64
	Seed  int64
}

// DefaultFig8Config returns the paper's parameters at p's scale and seed.
func DefaultFig8Config(p Params) Fig8Config {
	return Fig8Config{
		Scale:       p.Scale,
		FirstSpec:   "1M.50c.5d",
		SecondSizes: []int{100_000, 200_000, 300_000, 400_000, 500_000, 600_000, 700_000, 800_000},
		Noise:       0.02,
		Seed:        p.Seed,
	}
}

// Fig8Row is one measured point of Figure 8.
type Fig8Row struct {
	SecondSize int
	// BIRCH is the non-incremental time: phase 1 over both blocks plus
	// phase 2.
	BIRCH time.Duration
	// BIRCHPlus is the incremental time: phase 1 over the new block only
	// plus phase 2.
	BIRCHPlus time.Duration
	// Phase2 is the phase-2 share (the paper plots it separately to show it
	// is negligible).
	Phase2 time.Duration
}

// Figure8 runs the experiment.
func Figure8(cfg Fig8Config) ([]Fig8Row, error) {
	if cfg.Scale <= 0 {
		cfg.Scale = 0.1
	}
	pcfg, err := pointgen.ParseSpec(cfg.FirstSpec)
	if err != nil {
		return nil, err
	}
	pcfg.Seed = cfg.Seed
	pcfg.Noise = cfg.Noise
	gen, err := pointgen.New(pcfg)
	if err != nil {
		return nil, err
	}
	firstN := scaledSize(pcfg.NumPoints, cfg.Scale)
	first := gen.Block(1, firstN)
	bcfg := birch.DefaultConfig(pcfg.K)

	var rows []Fig8Row
	for _, rawSize := range cfg.SecondSizes {
		size := scaledSize(rawSize, cfg.Scale)
		// Regenerate the second block from a fixed offset so sizes are
		// comparable prefixes of one stream.
		p2 := pcfg
		p2.Seed = cfg.Seed + 7
		gen2, err := pointgen.New(p2)
		if err != nil {
			return nil, err
		}
		second := gen2.Block(2, size)

		row := Fig8Row{SecondSize: size}

		// Non-incremental BIRCH: phase 1 over first+second, then phase 2.
		start := time.Now()
		if _, err := birch.Run(bcfg, first.Points, second.Points); err != nil {
			return nil, fmt.Errorf("bench: figure 8 BIRCH run: %w", err)
		}
		row.BIRCH = time.Since(start)

		// BIRCH+: a fresh resident tree is rebuilt from the first block
		// outside the timed section (reusing plusBase across sizes would
		// accumulate earlier second blocks); only absorbing the new block
		// and running phase 2 is timed.
		plus, err := birch.NewPlus(bcfg)
		if err != nil {
			return nil, err
		}
		if err := plus.AddBlock(first.Points); err != nil {
			return nil, err
		}
		start = time.Now()
		if err := plus.AddBlock(second.Points); err != nil {
			return nil, fmt.Errorf("bench: figure 8 BIRCH+ add: %w", err)
		}
		p2Start := time.Now()
		if _, err := plus.Clusters(); err != nil {
			return nil, fmt.Errorf("bench: figure 8 phase 2: %w", err)
		}
		row.Phase2 = time.Since(p2Start)
		row.BIRCHPlus = time.Since(start)

		rows = append(rows, row)
	}
	return rows, nil
}

// WriteFig8 renders the rows as the Figure 8 series.
func WriteFig8(w io.Writer, rows []Fig8Row) {
	fmt.Fprintln(w, "Figure 8: BIRCH vs BIRCH+ time vs new-block size (seconds)")
	fmt.Fprintf(w, "%10s %12s %12s %12s\n", "block", "BIRCH", "BIRCH+", "phase 2")
	for _, r := range rows {
		fmt.Fprintf(w, "%10d %12.4f %12.4f %12.4f\n",
			r.SecondSize, r.BIRCH.Seconds(), r.BIRCHPlus.Seconds(), r.Phase2.Seconds())
	}
}
