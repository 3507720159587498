package bench

import (
	"fmt"
	"io"
	"time"

	"github.com/demon-mining/demon/internal/blockseq"
	"github.com/demon-mining/demon/internal/borders"
	"github.com/demon-mining/demon/internal/quest"
)

// MaintainConfig parameterizes Experiment 2 (Figures 4–7): the total model
// maintenance time — detection phase plus update phase — when a second block
// is added to a first block, versus the second block's size.
type MaintainConfig struct {
	// Figure names which paper figure the parameters correspond to (4–7).
	Figure int
	// Scale multiplies the paper's sizes.
	Scale float64
	// FirstSpec is the first block's distribution (paper:
	// 2M.20L.1I.4pats.4plen).
	FirstSpec string
	// SecondSpec is the second block's distribution (8pats.4plen for
	// Figures 4–5, 4pats.5plen for Figures 6–7, which cause more change).
	SecondSpec string
	// MinSupport is κ (0.008 for Figures 4 and 6, 0.009 for 5 and 7).
	MinSupport float64
	// BlockSizes are the second block's transaction counts before scaling
	// (paper: 10K–400K).
	BlockSizes []int
	Seed       int64
}

// DefaultMaintainConfig returns the paper's parameters for the given figure
// (4, 5, 6 or 7) at p's scale and seed.
func DefaultMaintainConfig(figure int, p Params) (MaintainConfig, error) {
	cfg := MaintainConfig{
		Figure:     figure,
		Scale:      p.Scale,
		FirstSpec:  "2M.20L.1I.4pats.4plen",
		BlockSizes: []int{10_000, 25_000, 50_000, 75_000, 100_000, 150_000, 200_000, 400_000},
		Seed:       p.Seed,
	}
	switch figure {
	case 4:
		cfg.SecondSpec, cfg.MinSupport = "2M.20L.1I.8pats.4plen", 0.008
	case 5:
		cfg.SecondSpec, cfg.MinSupport = "2M.20L.1I.8pats.4plen", 0.009
	case 6:
		cfg.SecondSpec, cfg.MinSupport = "2M.20L.1I.4pats.5plen", 0.008
	case 7:
		cfg.SecondSpec, cfg.MinSupport = "2M.20L.1I.4pats.5plen", 0.009
	default:
		return cfg, fmt.Errorf("bench: maintenance experiment figure must be 4–7, got %d", figure)
	}
	return cfg, nil
}

// MaintainRow is one measured point of Figures 4–7.
type MaintainRow struct {
	Figure    int
	BlockSize int
	// Detection is the detection-phase time (identical across strategies;
	// averaged over them).
	Detection time.Duration
	// UpdatePTScan/UpdateECUT/UpdateECUTPlus are the update-phase times.
	UpdatePTScan   time.Duration
	UpdateECUT     time.Duration
	UpdateECUTPlus time.Duration
	// Candidates is the number of new candidates counted (the |S| the
	// update phase faced).
	Candidates int
}

// Maintain runs one of Figures 4–7.
func Maintain(cfg MaintainConfig) ([]MaintainRow, error) {
	if cfg.Scale <= 0 {
		cfg.Scale = 0.1
	}
	env, err := NewCountEnv(cfg.FirstSpec, cfg.Scale, cfg.MinSupport, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("bench: figures 4–7 setup: %w", err)
	}

	spec2, err := quest.ParseSpec(cfg.SecondSpec)
	if err != nil {
		return nil, err
	}
	spec2.Seed = cfg.Seed + 100

	var rows []MaintainRow
	for i, rawSize := range cfg.BlockSizes {
		size := scaledSize(rawSize, cfg.Scale)
		gen2, err := quest.New(spec2)
		if err != nil {
			return nil, err
		}
		gen2.SetNextTID(env.NumTx)
		id := blockseq.ID(100 + i)
		blk2 := gen2.Block(id, size)

		// Ingest once: transactions, item TID-lists, and the pair lists of
		// the current model's frequent 2-itemsets.
		if err := env.Blocks.Put(blk2); err != nil {
			return nil, err
		}
		if err := env.TIDs.Materialize(blk2); err != nil {
			return nil, err
		}
		if pairs := frequentPairs(env.Lattice); len(pairs) > 0 {
			if _, _, err := env.TIDs.MaterializePairs(blk2, pairs, -1); err != nil {
				return nil, err
			}
		}

		row := MaintainRow{Figure: cfg.Figure, BlockSize: size}
		// Detection is the paper's: it organises L ∪ NB⁻ in a prefix tree and
		// scans the new block against it. The resident model builds that tree
		// once, when it is loaded, so the loads are timed here — all of them
		// before the first step, so no update phase runs beside a build.
		counters := env.Counters()
		models := make([]*borders.Model, len(counters))
		start := time.Now()
		for c := range models {
			models[c] = borders.FromLattice(env.Lattice, 1)
		}
		detections := time.Since(start)
		for c, counter := range counters {
			mt := &borders.Maintainer{Store: env.Blocks, Counter: counter, MinSupport: cfg.MinSupport, IO: env.Store}
			st, err := mt.AddBlock(models[c], blk2)
			if err != nil {
				return nil, fmt.Errorf("bench: figure %d with %s: %w", cfg.Figure, counter.Name(), err)
			}
			detections += st.Detection
			switch counter.Name() {
			case "PT-Scan":
				row.UpdatePTScan = st.Update
				row.Candidates = st.CandidatesCounted
			case "ECUT":
				row.UpdateECUT = st.Update
			case "ECUT+":
				row.UpdateECUTPlus = st.Update
			}
		}
		row.Detection = detections / time.Duration(len(counters))
		rows = append(rows, row)
	}
	return rows, nil
}

// WriteMaintain renders the rows as the Figures 4–7 series.
func WriteMaintain(w io.Writer, rows []MaintainRow) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "Figure %d: maintenance time vs new-block size (seconds)\n", rows[0].Figure)
	fmt.Fprintf(w, "%10s %12s %14s %12s %12s %8s\n",
		"block", "detection", "PT-Scan:upd", "ECUT:upd", "ECUT+:upd", "|S|")
	for _, r := range rows {
		fmt.Fprintf(w, "%10d %12.4f %14.4f %12.4f %12.4f %8d\n",
			r.BlockSize, r.Detection.Seconds(), r.UpdatePTScan.Seconds(),
			r.UpdateECUT.Seconds(), r.UpdateECUTPlus.Seconds(), r.Candidates)
	}
}
