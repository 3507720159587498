package bench

import (
	"fmt"
	"io"
	"time"

	"github.com/demon-mining/demon/internal/blockseq"
	"github.com/demon-mining/demon/internal/borders"
	"github.com/demon-mining/demon/internal/diskio"
	"github.com/demon-mining/demon/internal/fup"
	"github.com/demon-mining/demon/internal/itemset"
	"github.com/demon-mining/demon/internal/quest"
)

// FupConfig parameterizes the FUP-vs-BORDERS ablation: the DEMON paper's
// Section 6 notes that BORDERS improves FUP by reducing scans of the old
// database; this experiment measures both algorithms over the same block
// stream and reports the old-database scan counts and wall-clock times.
type FupConfig struct {
	Scale      float64
	Spec       string
	BlockSize  int
	Steps      int
	MinSupport float64
	Seed       int64
}

// DefaultFupConfig returns the ablation defaults at p's scale and seed.
func DefaultFupConfig(p Params) FupConfig {
	return FupConfig{
		Scale:      p.Scale,
		Spec:       "2M.20L.1I.4pats.4plen",
		BlockSize:  100_000,
		Steps:      4,
		MinSupport: 0.01,
		Seed:       p.Seed,
	}
}

// FupRow is one arrival's comparison.
type FupRow struct {
	Step int
	// FUPTime / BordersTime are the maintenance wall-clock times.
	FUPTime     time.Duration
	BordersTime time.Duration
	// FUPOldScans is the number of full old-database scans FUP performed
	// (one per level with new candidates); BORDERS performs at most a
	// handful of counting rounds, each one scan, and zero when nothing
	// changed.
	FUPOldScans int
	// BordersUpdateInvoked reports whether BORDERS ran its update phase.
	BordersUpdateInvoked bool
	// FrequentAgree reports whether both algorithms produced identical
	// frequent sets (a built-in cross-check).
	FrequentAgree bool
}

// FupVsBorders replays one block stream through both maintainers.
func FupVsBorders(cfg FupConfig) ([]FupRow, error) {
	if cfg.Scale <= 0 {
		cfg.Scale = 0.1
	}
	qc, err := quest.ParseSpec(cfg.Spec)
	if err != nil {
		return nil, err
	}
	qc.Seed = cfg.Seed
	gen, err := quest.New(qc)
	if err != nil {
		return nil, err
	}
	size := scaledSize(cfg.BlockSize, cfg.Scale)

	store := diskio.NewMemStore()
	blocks := itemset.NewBlockStore(store)
	bordersMT := &borders.Maintainer{
		Store: blocks, Counter: borders.PTScan{Blocks: blocks}, MinSupport: cfg.MinSupport,
	}
	bordersModel := bordersMT.Empty()
	fupMT := &fup.Maintainer{Store: blocks, MinSupport: cfg.MinSupport}
	fupModel := fupMT.Empty()

	var rows []FupRow
	for step := 1; step <= cfg.Steps; step++ {
		blk := gen.Block(blockseq.ID(step), size)
		if err := blocks.Put(blk); err != nil {
			return nil, err
		}

		start := time.Now()
		fst, err := fupMT.AddBlock(fupModel, blk)
		if err != nil {
			return nil, err
		}
		fupTime := time.Since(start)

		start = time.Now()
		bst, err := bordersMT.AddBlock(bordersModel, blk)
		if err != nil {
			return nil, err
		}
		bordersTime := time.Since(start)

		bordersFrequent := bordersModel.Lattice().Frequent
		agree := len(fupModel.Frequent) == len(bordersFrequent)
		if agree {
			for k, c := range fupModel.Frequent {
				if bordersFrequent[k] != c {
					agree = false
					break
				}
			}
		}
		rows = append(rows, FupRow{
			Step:                 step,
			FUPTime:              fupTime,
			BordersTime:          bordersTime,
			FUPOldScans:          fst.OldDBScans,
			BordersUpdateInvoked: bst.UpdateInvoked,
			FrequentAgree:        agree,
		})
	}
	return rows, nil
}

// WriteFupVsBorders renders the ablation rows.
func WriteFupVsBorders(w io.Writer, rows []FupRow) {
	fmt.Fprintln(w, "Ablation: FUP vs BORDERS maintenance per block arrival")
	fmt.Fprintf(w, "%6s %10s %12s %14s %14s %8s\n",
		"step", "FUP", "BORDERS", "FUP:oldscans", "BORDERS:upd", "agree")
	for _, r := range rows {
		fmt.Fprintf(w, "%6d %10.4f %12.4f %14d %14v %8v\n",
			r.Step, r.FUPTime.Seconds(), r.BordersTime.Seconds(),
			r.FUPOldScans, r.BordersUpdateInvoked, r.FrequentAgree)
	}
}
