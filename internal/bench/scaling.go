package bench

import (
	"fmt"
	"io"
	"os"
	"time"

	"github.com/demon-mining/demon/internal/blockseq"
	"github.com/demon-mining/demon/internal/borders"
	"github.com/demon-mining/demon/internal/diskio"
	_ "github.com/demon-mining/demon/internal/diskio/kvfile" // register the kvfile: store scheme
	"github.com/demon-mining/demon/internal/itemset"
	"github.com/demon-mining/demon/internal/quest"
	"github.com/demon-mining/demon/internal/tidlist"
)

// ScalingConfig parameterizes the parallel-ingestion scaling experiment: the
// same T10.I4 block stream is ingested with BORDERS maintenance at several
// worker counts, timing the maintenance and digesting the final store. The
// digest must be identical at every worker count — the parallel paths
// (PT-Scan candidate counting, detection scans, TID-list materialization)
// are deterministic by the additivity property of support counts.
type ScalingConfig struct {
	// Scale multiplies the block sizes (default 0.1).
	Scale float64
	// Spec is the quest dataset (default the T10.I4 workload
	// "1M.10L.1I.2pats.4plen").
	Spec string
	// NumBlocks and BlockSize shape the stream (defaults 8 blocks of 10000
	// transactions before scaling).
	NumBlocks int
	BlockSize int
	// MinSupport is the mining threshold (default 0.01).
	MinSupport float64
	// Workers are the worker counts swept; the first entry is the baseline
	// speedups are relative to (default 1, 2, 4, 8).
	Workers []int
	// Backends are the storage backends swept (mem, file, kvfile,
	// kvfile+cache; default mem only). Every (backend, workers) cell must
	// produce the same logical store digest — the backends may lay bytes out
	// differently on disk, but what they serve back must be identical.
	Backends []string
	// ScratchDir hosts the disk backends' stores (default: fresh temp dirs,
	// removed after each run).
	ScratchDir string
	// Seed fixes data generation.
	Seed int64
}

// DefaultScalingConfig returns the experiment's parameters at p's scale and
// seed, sweeping p's worker count and backends where it names them.
func DefaultScalingConfig(p Params) ScalingConfig {
	cfg := ScalingConfig{
		Scale:      p.Scale,
		Spec:       "1M.10L.1I.2pats.4plen",
		NumBlocks:  8,
		BlockSize:  10000,
		MinSupport: 0.01,
		Workers:    []int{1, 2, 4, 8},
		Backends:   p.Backends,
		Seed:       p.Seed,
	}
	if p.Workers > 0 {
		cfg.Workers = []int{1, p.Workers}
	}
	return cfg
}

// ScalingRow is one (backend, worker count) cell's measurement.
type ScalingRow struct {
	// Backend is the storage backend the cell ran on.
	Backend string
	Workers int
	// Maintain is the wall-clock time of all AddBlock maintenance steps
	// (detection + update counting).
	Maintain time.Duration
	// Ingest is the wall-clock time spent storing blocks and materializing
	// TID-lists.
	Ingest time.Duration
	// Speedup is baseline-Maintain / Maintain.
	Speedup float64
	// Digest fingerprints every key and value in the final store.
	Digest string
	// Identical reports whether Digest matches the baseline's.
	Identical bool
	// Frequent is the final frequent-itemset count (a cheap model check on
	// top of the byte digest).
	Frequent int
}

// backendStoreURL maps a scaling backend name to a store URL over dir. The
// names mirror the faultsweep matrix.
func backendStoreURL(name, dir string) (string, error) {
	switch name {
	case "", "mem":
		return "mem:", nil
	case "file":
		return "file:" + dir + "/store", nil
	case "kvfile":
		return "kvfile:" + dir + "/store.kv", nil
	case "kvfile+cache":
		return "kvfile:" + dir + "/store.kv?cache=256kb", nil
	default:
		return "", fmt.Errorf("bench: unknown scaling backend %q (want mem, file, kvfile or kvfile+cache)", name)
	}
}

// Scaling runs the ingestion pipeline once per (backend, worker count) cell
// over identical data and returns one row per cell. It fails when any run's
// final store digest diverges from the first cell's — determinism across
// worker counts AND byte-serving equivalence across storage backends are
// part of the experiment's contract, not just a reported column.
func Scaling(cfg ScalingConfig) ([]ScalingRow, error) {
	if cfg.Scale <= 0 {
		cfg.Scale = 0.1
	}
	d := DefaultScalingConfig(Params{Scale: cfg.Scale})
	if cfg.Spec == "" {
		cfg.Spec = d.Spec
	}
	if cfg.NumBlocks <= 0 {
		cfg.NumBlocks = d.NumBlocks
	}
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = d.BlockSize
	}
	if cfg.MinSupport <= 0 {
		cfg.MinSupport = d.MinSupport
	}
	if len(cfg.Workers) == 0 {
		cfg.Workers = d.Workers
	}
	if len(cfg.Backends) == 0 {
		cfg.Backends = []string{"mem"}
	}
	qc, err := quest.ParseSpec(cfg.Spec)
	if err != nil {
		return nil, err
	}
	qc.Seed = cfg.Seed
	blockSize := scaledSize(cfg.BlockSize, cfg.Scale)

	rows := make([]ScalingRow, 0, len(cfg.Workers)*len(cfg.Backends))
	for _, be := range cfg.Backends {
		for _, w := range cfg.Workers {
			row, err := scalingRun(qc, cfg, blockSize, be, w)
			if err != nil {
				return nil, fmt.Errorf("bench: scaling on %s at %d workers: %w", be, w, err)
			}
			base := row
			if len(rows) > 0 {
				base = rows[0]
			}
			row.Speedup = float64(base.Maintain) / float64(max(row.Maintain, 1))
			row.Identical = row.Digest == base.Digest
			if !row.Identical {
				return nil, fmt.Errorf("bench: scaling on %s at %d workers diverged from the %s/%d-worker baseline: store digest %s != %s",
					be, w, base.Backend, base.Workers, row.Digest, base.Digest)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// scalingRun ingests the whole stream at one worker count: each block is
// stored, its TID-lists (items and the model's frequent 2-itemset pairs)
// materialized, and the BORDERS model maintained with PT-Scan counting.
func scalingRun(qc quest.Config, cfg ScalingConfig, blockSize int, backend string, workers int) (ScalingRow, error) {
	row := ScalingRow{Backend: backend, Workers: workers}
	gen, err := quest.New(qc)
	if err != nil {
		return row, err
	}
	scratch, err := os.MkdirTemp(cfg.ScratchDir, "demon-scaling-*")
	if err != nil {
		return row, err
	}
	defer os.RemoveAll(scratch)
	url, err := backendStoreURL(backend, scratch)
	if err != nil {
		return row, err
	}
	store, err := diskio.Open(url)
	if err != nil {
		return row, err
	}
	defer diskio.CloseStore(store)
	blocks := itemset.NewBlockStore(store)
	tids := tidlist.NewStore(store)
	tids.SetWorkers(workers)
	mt := &borders.Maintainer{
		Store:      blocks,
		Counter:    borders.PTScan{Blocks: blocks, Workers: workers},
		MinSupport: cfg.MinSupport,
	}
	model := mt.Empty()
	for b := 1; b <= cfg.NumBlocks; b++ {
		blk := gen.Block(blockseq.ID(b), blockSize)

		start := time.Now()
		if err := blocks.Put(blk); err != nil {
			return row, err
		}
		if err := tids.Materialize(blk); err != nil {
			return row, err
		}
		var pairs []itemset.Itemset
		model.EachFrequent(func(x itemset.Itemset, _ int) {
			if len(x) == 2 {
				pairs = append(pairs, x.Clone())
			}
		})
		if len(pairs) > 0 {
			if _, _, err := tids.MaterializePairs(blk, pairs, -1); err != nil {
				return row, err
			}
		}
		row.Ingest += time.Since(start)

		start = time.Now()
		if _, err := mt.AddBlock(model, blk); err != nil {
			return row, err
		}
		row.Maintain += time.Since(start)
	}
	row.Frequent = model.NumFrequent()
	row.Digest, err = diskio.Digest(store)
	return row, err
}

// frequentPairs lists the lattice's frequent 2-itemsets in deterministic
// order.
func frequentPairs(l *itemset.Lattice) []itemset.Itemset {
	var pairs []itemset.Itemset
	for k := range l.Frequent {
		if x := k.Itemset(); len(x) == 2 {
			pairs = append(pairs, x)
		}
	}
	itemset.SortItemsets(pairs)
	return pairs
}

// WriteScaling renders the rows.
func WriteScaling(w io.Writer, rows []ScalingRow) {
	fmt.Fprintln(w, "Scaling: parallel ingestion vs worker count and backend (identical store digest required)")
	fmt.Fprintf(w, "%14s %8s %12s %12s %9s %10s %10s\n",
		"backend", "workers", "maintain", "ingest", "speedup", "|L|", "identical")
	for _, r := range rows {
		be := r.Backend
		if be == "" {
			be = "mem"
		}
		fmt.Fprintf(w, "%14s %8d %12.4f %12.4f %9.2f %10d %10v\n",
			be, r.Workers, r.Maintain.Seconds(), r.Ingest.Seconds(), r.Speedup, r.Frequent, r.Identical)
	}
}
