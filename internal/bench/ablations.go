package bench

import (
	"fmt"
	"io"
	"time"

	"github.com/demon-mining/demon/internal/blockseq"
	"github.com/demon-mining/demon/internal/borders"
	"github.com/demon-mining/demon/internal/diskio"
	"github.com/demon-mining/demon/internal/gemm"
	"github.com/demon-mining/demon/internal/itemset"
	"github.com/demon-mining/demon/internal/quest"
)

// GemmVsAuMConfig parameterizes the Section 3.2.4 trade-off ablation: the
// response time of GEMM (one A_M addition per arrival, w models on the
// side) versus AuM (a single model updated by adding the new block and
// deleting the departing one) under the all-ones BSS.
type GemmVsAuMConfig struct {
	Scale float64
	// Spec is the block distribution.
	Spec string
	// BlockSize is each block's transaction count before scaling.
	BlockSize int
	// WindowSize is w.
	WindowSize int
	// Steps is how many arrivals are replayed after warm-up.
	Steps      int
	MinSupport float64
	Seed       int64
}

// DefaultGemmVsAuMConfig returns the ablation defaults at p's scale and seed.
func DefaultGemmVsAuMConfig(p Params) GemmVsAuMConfig {
	return GemmVsAuMConfig{
		Scale:      p.Scale,
		Spec:       "2M.20L.1I.4pats.4plen",
		BlockSize:  100_000,
		WindowSize: 4,
		Steps:      6,
		MinSupport: 0.01,
		Seed:       p.Seed,
	}
}

// GemmVsAuMRow is one arrival's measured response times.
type GemmVsAuMRow struct {
	Step int
	// GEMMResponse is the single time-critical A_M invocation: updating the
	// slot that becomes current.
	GEMMResponse time.Duration
	// GEMMTotal includes the off-line updates of the other w-1 models.
	GEMMTotal time.Duration
	// AuM is the add-new-block plus delete-oldest-block time.
	AuM time.Duration
}

// gemmBenchAdapter lets GEMM drive the BORDERS maintainer.
type gemmBenchAdapter struct{ mt *borders.Maintainer }

func (a gemmBenchAdapter) Empty(*borders.Model) *borders.Model { return a.mt.Empty() }

func (a gemmBenchAdapter) Add(m *borders.Model, blk *itemset.TxBlock) (*borders.Model, error) {
	_, err := a.mt.AddBlock(m, blk)
	return m, err
}

// GemmVsAuM runs the ablation with the all-ones BSS: both maintainers track
// the plain sliding window, so the paper's "AuM takes roughly twice as long"
// claim is directly measurable.
func GemmVsAuM(cfg GemmVsAuMConfig) ([]GemmVsAuMRow, error) {
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

	gemmAdapter := gemmBenchAdapter{mt: &borders.Maintainer{
		Store: blocks, Counter: borders.PTScan{Blocks: blocks}, MinSupport: cfg.MinSupport,
	}}
	g, err := gemm.NewWindowIndependent[*itemset.TxBlock, *borders.Model](gemmAdapter, cfg.WindowSize, blockseq.All{})
	if err != nil {
		return nil, err
	}
	// The claim under test is about one A_M invocation against AuM's two, so
	// the off-line slots run after the time-critical one, not beside it:
	// fanned across workers they contend with it (under the race detector
	// its time grows 1.7× and the comparison measures the contention).
	g.SetWorkers(1)

	aumMT := &borders.Maintainer{Store: blocks, Counter: borders.PTScan{Blocks: blocks}, MinSupport: cfg.MinSupport}
	aumModel := aumMT.Empty()

	// Warm-up: fill one whole window.
	var id blockseq.ID
	for i := 0; i < cfg.WindowSize; i++ {
		id++
		blk := gen.Block(id, size)
		if err := blocks.Put(blk); err != nil {
			return nil, err
		}
		if err := g.AddBlock(blk, id); err != nil {
			return nil, err
		}
		if _, err := aumMT.AddBlock(aumModel, blk); err != nil {
			return nil, err
		}
	}

	var rows []GemmVsAuMRow
	for step := 1; step <= cfg.Steps; step++ {
		id++
		blk := gen.Block(id, size)
		if err := blocks.Put(blk); err != nil {
			return nil, err
		}

		start := time.Now()
		if err := g.AddBlock(blk, id); err != nil {
			return nil, err
		}
		gemmTotal := time.Since(start)

		start = time.Now()
		if _, err := aumMT.AddBlock(aumModel, blk); err != nil {
			return nil, err
		}
		if _, err := aumMT.DeleteBlock(aumModel, aumModel.Blocks[0]); err != nil {
			return nil, err
		}
		aum := time.Since(start)

		rows = append(rows, GemmVsAuMRow{
			Step:         step,
			GEMMResponse: g.Response(),
			GEMMTotal:    gemmTotal,
			AuM:          aum,
		})
	}
	return rows, nil
}

// WriteGemmVsAuM renders the ablation rows.
func WriteGemmVsAuM(w io.Writer, rows []GemmVsAuMRow) {
	fmt.Fprintln(w, "Ablation: GEMM vs AuM response time, BSS=<1...1> (seconds)")
	fmt.Fprintf(w, "%6s %15s %12s %12s\n", "step", "GEMM:response", "GEMM:total", "AuM")
	for _, r := range rows {
		fmt.Fprintf(w, "%6d %15.4f %12.4f %12.4f\n",
			r.Step, r.GEMMResponse.Seconds(), r.GEMMTotal.Seconds(), r.AuM.Seconds())
	}
}

// BudgetConfig parameterizes the ECUT+ space-budget sweep: counting time as
// a function of the fraction of frequent 2-itemsets that fit the per-block
// materialization budget.
type BudgetConfig struct {
	Scale float64
	Spec  string
	// Fractions of the unlimited pair-entry volume to sweep.
	Fractions  []float64
	NumSets    int
	MinSupport float64
	Seed       int64
}

// DefaultBudgetConfig returns the sweep defaults at p's scale and seed.
func DefaultBudgetConfig(p Params) BudgetConfig {
	return BudgetConfig{
		Scale:      p.Scale,
		Spec:       "2M.20L.1I.4pats.4plen",
		Fractions:  []float64{0, 0.25, 0.5, 0.75, 1},
		NumSets:    40,
		MinSupport: 0.01,
		Seed:       p.Seed,
	}
}

// BudgetRow is one point of the sweep.
type BudgetRow struct {
	Fraction float64
	// PairsMaterialized is how many 2-itemsets fit the budget.
	PairsMaterialized int
	// CountTime is the ECUT+ counting time for the candidate set.
	CountTime time.Duration
	// EntriesRead is the number of TID entries fetched.
	EntriesRead int64
}

// ECUTPlusBudget runs the sweep: the 0-fraction point is plain ECUT; the
// 1-fraction point is the best-case ECUT+ of Experiment 1.
func ECUTPlusBudget(cfg BudgetConfig) ([]BudgetRow, error) {
	if cfg.Scale <= 0 {
		cfg.Scale = 0.1
	}
	var rows []BudgetRow
	for _, frac := range cfg.Fractions {
		env, err := NewCountEnv(cfg.Spec, cfg.Scale, cfg.MinSupport, cfg.Seed)
		if err != nil {
			return nil, err
		}
		// Re-materialize pairs under the budgeted entry count. NewCountEnv
		// already materialized everything; rebuild the pair set under the
		// budget by re-running MaterializePairs with the scaled budget.
		blk, err := env.Blocks.Get(1)
		if err != nil {
			return nil, err
		}
		pairs := frequentPairs(env.Lattice)
		// Decreasing-support order, the paper's heuristic.
		type scored struct {
			set   itemset.Itemset
			count int
		}
		ranked := make([]scored, len(pairs))
		for i, p := range pairs {
			ranked[i] = scored{p, env.Lattice.Frequent[p.Key()]}
		}
		for i := 1; i < len(ranked); i++ {
			for j := i; j > 0 && (ranked[j].count > ranked[j-1].count ||
				(ranked[j].count == ranked[j-1].count && ranked[j].set.Key() < ranked[j-1].set.Key())); j-- {
				ranked[j], ranked[j-1] = ranked[j-1], ranked[j]
			}
		}
		ordered := make([]itemset.Itemset, len(ranked))
		for i, s := range ranked {
			ordered[i] = s.set
		}
		budget := int64(frac * float64(env.PairBudgetUsed))
		if frac == 0 {
			budget = 0
		}
		chosen, _, err := env.TIDs.MaterializePairs(blk, ordered, budget)
		if err != nil {
			return nil, err
		}

		// Prefer candidates of size ≥ 3: only those can be covered by
		// materialized 2-itemset lists (border 2-itemsets are infrequent by
		// definition and never materialized), so the sweep isolates the
		// budget's effect.
		var sets []itemset.Itemset
		for _, x := range env.Border {
			if len(x) >= 3 {
				sets = append(sets, x)
				if len(sets) == cfg.NumSets {
					break
				}
			}
		}
		if len(sets) == 0 {
			sets = env.CandidateSet(cfg.NumSets)
		}
		counter := borders.ECUTPlus{TIDs: env.TIDs}
		env.TIDs.ResetEntriesRead()
		start := time.Now()
		if _, err := counter.Count(sets, env.BlockIDs); err != nil {
			return nil, err
		}
		rows = append(rows, BudgetRow{
			Fraction:          frac,
			PairsMaterialized: len(chosen),
			CountTime:         time.Since(start),
			EntriesRead:       env.TIDs.EntriesRead(),
		})
	}
	return rows, nil
}

// WriteBudget renders the sweep rows.
func WriteBudget(w io.Writer, rows []BudgetRow) {
	fmt.Fprintln(w, "Ablation: ECUT+ pair-materialization budget sweep")
	fmt.Fprintf(w, "%10s %8s %12s %14s\n", "fraction", "pairs", "count time", "entries read")
	for _, r := range rows {
		fmt.Fprintf(w, "%10.2f %8d %12.4f %14d\n",
			r.Fraction, r.PairsMaterialized, r.CountTime.Seconds(), r.EntriesRead)
	}
}

// KappaConfig parameterizes the support-threshold change ablation.
type KappaConfig struct {
	Scale      float64
	Spec       string
	MinSupport float64
	// Raise and Lower are the new thresholds tried from MinSupport.
	Raise, Lower float64
	Seed         int64
}

// DefaultKappaConfig returns the ablation defaults at p's scale and seed.
func DefaultKappaConfig(p Params) KappaConfig {
	return KappaConfig{
		Scale: p.Scale, Spec: "2M.20L.1I.4pats.4plen",
		MinSupport: 0.01, Raise: 0.02, Lower: 0.008, Seed: p.Seed,
	}
}

// KappaRow reports one threshold change.
type KappaRow struct {
	From, To float64
	Elapsed  time.Duration
	// Candidates is the number of new candidates counted (zero for raises).
	Candidates int
	// Frequent is the frequent-set size after the change.
	Frequent int
}

// KappaChange measures raising vs lowering the threshold on a mined model.
func KappaChange(cfg KappaConfig) ([]KappaRow, error) {
	if cfg.Scale <= 0 {
		cfg.Scale = 0.1
	}
	var rows []KappaRow
	for _, to := range []float64{cfg.Raise, cfg.Lower} {
		env, err := NewCountEnv(cfg.Spec, cfg.Scale, cfg.MinSupport, cfg.Seed)
		if err != nil {
			return nil, err
		}
		model := borders.FromLattice(env.Lattice, 1)
		mt := &borders.Maintainer{
			Store:      env.Blocks,
			Counter:    borders.ECUT{TIDs: env.TIDs},
			MinSupport: cfg.MinSupport,
		}
		start := time.Now()
		st, err := mt.ChangeMinSupport(model, to)
		if err != nil {
			return nil, err
		}
		rows = append(rows, KappaRow{
			From:       cfg.MinSupport,
			To:         to,
			Elapsed:    time.Since(start),
			Candidates: st.CandidatesCounted,
			Frequent:   model.NumFrequent(),
		})
	}
	return rows, nil
}

// WriteKappa renders the ablation rows.
func WriteKappa(w io.Writer, rows []KappaRow) {
	fmt.Fprintln(w, "Ablation: support-threshold change κ → κ'")
	fmt.Fprintf(w, "%8s %8s %12s %12s %10s\n", "from", "to", "time", "candidates", "|L|")
	for _, r := range rows {
		fmt.Fprintf(w, "%8.3f %8.3f %12.4f %12d %10d\n",
			r.From, r.To, r.Elapsed.Seconds(), r.Candidates, r.Frequent)
	}
}
