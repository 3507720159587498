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

// ScalingConfig parameterizes the backend scaling experiment: the same
// T10.I4 block stream is ingested with BORDERS maintenance on each storage
// backend, timing the ingest and the maintenance and digesting the final
// store. The digest must be identical on every backend.
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
	// Backends are the storage backends swept (mem, file, kvfile,
	// kvfile+cache; default mem only). Every backend must produce the same
	// logical store digest — the backends may lay bytes out differently on
	// disk, but what they serve back must be identical.
	Backends []string
	// ScratchDir hosts the disk backends' stores (default: fresh temp dirs,
	// removed after each run).
	ScratchDir string
	// Seed fixes data generation.
	Seed int64
}

// DefaultScalingConfig returns the experiment's parameters at p's scale and
// seed, sweeping p's backends where it names them.
func DefaultScalingConfig(p Params) ScalingConfig {
	return ScalingConfig{
		Scale:      p.Scale,
		Spec:       "1M.10L.1I.2pats.4plen",
		NumBlocks:  8,
		BlockSize:  10000,
		MinSupport: 0.01,
		Backends:   p.Backends,
		Seed:       p.Seed,
	}
}

// ScalingRow is one backend's measurement.
type ScalingRow struct {
	// Backend is the storage backend the run used.
	Backend string
	// Maintain is the wall-clock time of all AddBlock maintenance steps
	// (detection + update counting).
	Maintain time.Duration
	// Ingest is the wall-clock time spent storing blocks and materializing
	// TID-lists.
	Ingest time.Duration
	// Digest fingerprints every key and value in the final store.
	Digest string
	// Identical reports whether Digest matches the first backend's.
	Identical bool
	// Frequent is the final frequent-itemset count (a cheap model check on
	// top of the byte digest).
	Frequent int
}

// backendStoreURL maps a scaling backend name to a store URL over dir. The
// names mirror the backend rows of the durability simulations.
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

// Scaling runs the ingestion pipeline once per backend over identical data
// and returns one row per backend. It fails when any run's final store
// digest diverges from the first backend's — byte-serving equivalence
// across storage backends is part of the experiment's contract, not just a
// reported column.
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
	if len(cfg.Backends) == 0 {
		cfg.Backends = []string{"mem"}
	}
	qc, err := quest.ParseSpec(cfg.Spec)
	if err != nil {
		return nil, err
	}
	qc.Seed = cfg.Seed
	blockSize := scaledSize(cfg.BlockSize, cfg.Scale)

	rows := make([]ScalingRow, 0, len(cfg.Backends))
	for _, be := range cfg.Backends {
		row, err := scalingRun(qc, cfg, blockSize, be)
		if err != nil {
			return nil, fmt.Errorf("bench: scaling on %s: %w", be, err)
		}
		base := row
		if len(rows) > 0 {
			base = rows[0]
		}
		row.Identical = row.Digest == base.Digest
		if !row.Identical {
			return nil, fmt.Errorf("bench: scaling on %s diverged from %s: store digest %s != %s",
				be, base.Backend, row.Digest, base.Digest)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// scalingRun ingests the whole stream on one backend: each block is stored,
// its TID-lists (items and the model's frequent 2-itemset pairs)
// materialized, and the BORDERS model maintained with PT-Scan counting.
func scalingRun(qc quest.Config, cfg ScalingConfig, blockSize int, backend string) (ScalingRow, error) {
	row := ScalingRow{Backend: backend}
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
	mt := &borders.Maintainer{
		Store:      blocks,
		Counter:    borders.PTScan{Blocks: blocks},
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
	fmt.Fprintln(w, "Scaling: ingestion per storage backend (identical store digest required)")
	fmt.Fprintf(w, "%14s %12s %12s %10s %10s\n",
		"backend", "maintain", "ingest", "|L|", "identical")
	for _, r := range rows {
		be := r.Backend
		if be == "" {
			be = "mem"
		}
		fmt.Fprintf(w, "%14s %12.4f %12.4f %10d %10v\n",
			be, r.Maintain.Seconds(), r.Ingest.Seconds(), r.Frequent, r.Identical)
	}
}
