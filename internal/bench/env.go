// Package bench implements the experiment harness that regenerates every
// table and figure of the DEMON paper's evaluation (Section 5), plus the
// ablations called out in DESIGN.md. Each experiment returns typed rows that
// the demon-bench CLI renders as the paper's tables/series and that the
// repository's integration tests assert shape properties on (who wins, by
// roughly what factor, where the crossovers fall).
//
// Dataset sizes scale with a single factor so the full suite runs on a
// laptop (scale 0.1 by default); scale 1.0 reproduces the paper's sizes.
package bench

import (
	"math/rand"

	"github.com/demon-mining/demon/internal/blockseq"
	"github.com/demon-mining/demon/internal/borders"
	"github.com/demon-mining/demon/internal/diskio"
	"github.com/demon-mining/demon/internal/itemset"
	"github.com/demon-mining/demon/internal/quest"
	"github.com/demon-mining/demon/internal/tidlist"
)

// CountEnv is a prepared environment for the counting experiments: one
// dataset ingested as a single block, with TID-lists (and the frequent
// 2-itemset pair lists) materialized, the lattice mined, and the negative
// border available to sample candidate sets from.
type CountEnv struct {
	Spec     string
	NumTx    int
	Blocks   *itemset.BlockStore
	TIDs     *tidlist.Store
	BlockIDs []blockseq.ID
	Lattice  *itemset.Lattice
	// Store is the byte-accounted store both the transaction blocks and the
	// TID-lists live in; experiments read its Stats around counting calls to
	// attribute byte traffic to strategies.
	Store diskio.Store
	// Border is the negative border in a seed-determined shuffled order;
	// experiments take prefixes of it as the candidate sets S.
	Border []itemset.Itemset
	// PairBudgetUsed is the number of TID entries spent on 2-itemset lists.
	PairBudgetUsed int64
	// ItemEntries is the total number of TID entries across item lists
	// (equals the transactional data volume).
	ItemEntries int64
}

// NewCountEnv generates the dataset named by spec (scaled), ingests it, and
// mines the lattice at minsup. All frequent 2-itemsets are materialized
// (the best-case ECUT+ setting of Experiment 1).
func NewCountEnv(spec string, scale, minsup float64, seed int64) (*CountEnv, error) {
	cfg, err := quest.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	cfg.Seed = seed
	numTx := int(float64(cfg.NumTx) * scale)
	if numTx < 1000 {
		numTx = 1000
	}
	gen, err := quest.New(cfg)
	if err != nil {
		return nil, err
	}
	store := diskio.NewMemStore()
	env := &CountEnv{
		Spec:   spec,
		NumTx:  numTx,
		Blocks: itemset.NewBlockStore(store),
		TIDs:   tidlist.NewStore(store),
		Store:  store,
	}

	blk := gen.Block(1, numTx)
	if err := env.Blocks.Put(blk); err != nil {
		return nil, err
	}
	if err := env.TIDs.Materialize(blk); err != nil {
		return nil, err
	}
	env.BlockIDs = []blockseq.ID{1}

	env.Lattice, err = itemset.Apriori(itemset.SliceSource(blk.Txs), nil, minsup)
	if err != nil {
		return nil, err
	}

	// Materialize every frequent 2-itemset (unlimited budget).
	if pairs := frequentPairs(env.Lattice); len(pairs) > 0 {
		_, used, err := env.TIDs.MaterializePairs(blk, pairs, -1)
		if err != nil {
			return nil, err
		}
		env.PairBudgetUsed = used
	}

	// Item entries = sum of item supports = total items across transactions.
	for _, tx := range blk.Txs {
		env.ItemEntries += int64(len(tx.Items))
	}

	env.Border = env.Lattice.BorderSets()
	rng := rand.New(rand.NewSource(seed + 1))
	rng.Shuffle(len(env.Border), func(i, j int) { env.Border[i], env.Border[j] = env.Border[j], env.Border[i] })
	return env, nil
}

// CandidateSet returns the first n shuffled negative-border itemsets — the
// random S ⊆ NB⁻ of Experiment 1.
func (e *CountEnv) CandidateSet(n int) []itemset.Itemset {
	if n > len(e.Border) {
		n = len(e.Border)
	}
	return e.Border[:n]
}

// Counters returns the three counting strategies of Experiment 1 bound to
// this environment, in presentation order.
func (e *CountEnv) Counters() []borders.Counter {
	return []borders.Counter{
		borders.PTScan{Blocks: e.Blocks},
		borders.ECUT{TIDs: e.TIDs},
		borders.ECUTPlus{TIDs: e.TIDs},
	}
}

// scaledSize scales a paper block size, clamping to a small floor so that
// scaled runs remain meaningful.
func scaledSize(n int, scale float64) int {
	s := int(float64(n) * scale)
	if s < 200 {
		s = 200
	}
	return s
}
