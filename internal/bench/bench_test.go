package bench

import "testing"

// The tests in this file assert the *shapes* the paper reports — who wins,
// by roughly what factor, where crossovers fall — at a reduced scale, so the
// full experiment suite is exercised end to end on every test run.

const testScale = 0.03

// testParams is what every Shape test builds its default configuration from
// before trimming it.
var testParams = Params{Scale: testScale, Seed: 1}

func TestFigure2Shape(t *testing.T) {
	cfg := DefaultFig2Config(testParams)
	cfg.Datasets = cfg.Datasets[:1] // the 2M variant suffices for shape
	cfg.Sizes = []int{5, 40, 180}
	rows, err := Figure2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	small := rows[0]
	// Paper: for small |S|, ECUT is at least ~2x faster than PT-Scan and
	// ECUT+ is faster still (≈8x in the paper).
	if small.ECUT >= small.PTScan {
		t.Errorf("|S|=%d: ECUT %v not faster than PT-Scan %v", small.NumSets, small.ECUT, small.PTScan)
	}
	if small.ECUTPlus >= small.PTScan {
		t.Errorf("|S|=%d: ECUT+ %v not faster than PT-Scan %v", small.NumSets, small.ECUTPlus, small.PTScan)
	}
	// ECUT reads only the lists of the candidates' items: at small |S| a
	// sliver of the transactions PT-Scan reads, whatever a store read fetches.
	if small.ECUTIO.BytesRead*20 >= small.PTScanIO.BytesRead {
		t.Errorf("|S|=%d: ECUT read %d bytes, PT-Scan %d: not under 5 %%", small.NumSets,
			small.ECUTIO.BytesRead, small.PTScanIO.BytesRead)
	}
	// Paper: ECUT's cost grows with |S| while PT-Scan's is roughly flat, so
	// the ECUT/PT-Scan ratio must grow across the sweep.
	first := rows[0].ECUT.Seconds() / rows[0].PTScan.Seconds()
	last := rows[len(rows)-1].ECUT.Seconds() / rows[len(rows)-1].PTScan.Seconds()
	if last <= first {
		t.Errorf("ECUT/PT-Scan ratio did not grow with |S|: %v -> %v", first, last)
	}
	checkPinned(t, "fig2", rows)
}

func TestFigure3Shape(t *testing.T) {
	rows, err := Figure3(DefaultFig3Config(testParams))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Paper: the extra space shrinks as κ grows (25.3% → 11.8% → 5.3%) and
	// stays well below the dataset size.
	for i := 1; i < len(rows); i++ {
		if rows[i].ExtraSpacePct >= rows[i-1].ExtraSpacePct {
			t.Errorf("extra space not decreasing: %v then %v", rows[i-1].ExtraSpacePct, rows[i].ExtraSpacePct)
		}
	}
	for _, r := range rows {
		if r.ExtraSpacePct <= 0 || r.ExtraSpacePct >= 100 {
			t.Errorf("extra space %v%% implausible at κ=%v", r.ExtraSpacePct, r.Support)
		}
	}
	checkPinned(t, "fig3", rows)
}

func TestMaintainShape(t *testing.T) {
	cfg, err := DefaultMaintainConfig(4, testParams)
	if err != nil {
		t.Fatal(err)
	}
	cfg.BlockSizes = []int{10_000, 100_000}
	rows, err := Maintain(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The strict assertions below compare wall-clock samples of one ~30 ms
	// step each, taken while other packages' tests run beside this one: give
	// every phase of the smallest block its best of three runs, the estimator
	// the benchmark's restart_best_ms uses. The bounds stay as they are.
	cfg.BlockSizes = cfg.BlockSizes[:1]
	for rep := 0; rep < 2; rep++ {
		again, err := Maintain(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, a := &rows[0], again[0]
		r.Detection = min(r.Detection, a.Detection)
		r.UpdatePTScan = min(r.UpdatePTScan, a.UpdatePTScan)
		r.UpdateECUT = min(r.UpdateECUT, a.UpdateECUT)
		r.UpdateECUTPlus = min(r.UpdateECUTPlus, a.UpdateECUTPlus)
	}
	for i, r := range rows {
		if r.Candidates == 0 {
			continue
		}
		// Paper: with small new blocks, the TID-list strategies beat the
		// full-scan update. At the largest sizes the candidate count
		// explodes and the strategies converge (the paper's own crossover
		// region), so the strict claim is asserted on the smallest measured
		// block and only near-parity (within 1.5×) on the rest — timing
		// noise at the crossover must not fail the suite.
		strict := i == 0
		if strict {
			if r.UpdateECUT >= r.UpdatePTScan {
				t.Errorf("block %d: ECUT update %v not faster than PT-Scan %v",
					r.BlockSize, r.UpdateECUT, r.UpdatePTScan)
			}
			if r.UpdateECUTPlus >= r.UpdatePTScan {
				t.Errorf("block %d: ECUT+ update %v not faster than PT-Scan %v",
					r.BlockSize, r.UpdateECUTPlus, r.UpdatePTScan)
			}
		} else {
			if r.UpdateECUT > r.UpdatePTScan*3/2 {
				t.Errorf("block %d: ECUT update %v far slower than PT-Scan %v",
					r.BlockSize, r.UpdateECUT, r.UpdatePTScan)
			}
			if r.UpdateECUTPlus > r.UpdatePTScan*3/2 {
				t.Errorf("block %d: ECUT+ update %v far slower than PT-Scan %v",
					r.BlockSize, r.UpdateECUTPlus, r.UpdatePTScan)
			}
		}
		// Paper: with ECUT in the update phase, the detection phase
		// dominates the total maintenance time; allow slack off the
		// smallest block for the same noise reason. (The converse claim —
		// PT-Scan's update dominating detection — only emerges at dataset
		// sizes much larger than the tracked itemset volume, so it is
		// recorded by the full-scale run, not asserted here.)
		if strict && r.Detection <= r.UpdateECUT {
			t.Errorf("block %d: detection %v should dominate ECUT update %v",
				r.BlockSize, r.Detection, r.UpdateECUT)
		}
	}
	checkPinned(t, "fig4", rows)
}

func TestMaintainConfigValidation(t *testing.T) {
	if _, err := DefaultMaintainConfig(3, testParams); err == nil {
		t.Error("accepted figure 3 as a maintenance figure")
	}
	for _, f := range []int{4, 5, 6, 7} {
		if _, err := DefaultMaintainConfig(f, testParams); err != nil {
			t.Errorf("figure %d rejected: %v", f, err)
		}
	}
}

func TestFigure8Shape(t *testing.T) {
	cfg := DefaultFig8Config(testParams)
	cfg.SecondSizes = []int{100_000, 800_000}
	rows, err := Figure8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Paper: BIRCH+ significantly outperforms BIRCH, and phase 2 is a
		// negligible share.
		if r.BIRCHPlus >= r.BIRCH {
			t.Errorf("block %d: BIRCH+ %v not faster than BIRCH %v", r.SecondSize, r.BIRCHPlus, r.BIRCH)
		}
		// Phase 2 runs on the in-memory sub-clusters only; its cost is
		// bounded by the budgeted sub-cluster count and must stay below the
		// full re-clustering time. (Its "negligible" share emerges at paper
		// scale, where phase 1 grows with the data and phase 2 does not.)
		if r.Phase2 >= r.BIRCH {
			t.Errorf("block %d: phase 2 %v not below BIRCH %v", r.SecondSize, r.Phase2, r.BIRCH)
		}
	}
	checkPinned(t, "fig8", rows)
}

func TestFigure9Shape(t *testing.T) {
	cfg := DefaultFig9Config(testParams)
	cfg.Granularities = []int{24}
	cfg.RequestsPerHour = 200
	res, err := Figure9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The headline finding: the anomalous Monday never joins a workday
	// pattern.
	if !res.AnomalyExcluded[24] {
		t.Error("anomalous Monday joined a workday pattern at 24h granularity")
	}
	// At least one multi-block workday pattern must exist.
	found := false
	for _, p := range res.Patterns {
		workdays := 0
		for _, k := range p.Kinds {
			if k == 0 { // proxysim.Workday
				workdays++
			}
		}
		if workdays >= 3 {
			found = true
		}
	}
	if !found {
		t.Error("no multi-day workday pattern discovered")
	}
	// The line under the title names the granularity that ran.
	p, table := render(t, "fig9", res)
	checkHeader(t, table, p.title, "--- granularity 24 hr (anomalous Monday excluded from workday patterns: true)")
}

func TestFigure10Shape(t *testing.T) {
	cfg := DefaultFig10Config(testParams)
	cfg.RequestsPerHour = 120
	rows, err := Figure10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 82 {
		t.Fatalf("rows = %d, want 82 six-hour blocks", len(rows))
	}
	// Per-block cost grows with the number of earlier blocks to compare
	// against: the last quarter must be slower on average than the first.
	quarter := len(rows) / 4
	var head, tail float64
	for i := 0; i < quarter; i++ {
		head += rows[i].Elapsed.Seconds()
		tail += rows[len(rows)-1-i].Elapsed.Seconds()
	}
	if tail <= head {
		t.Errorf("per-block cost did not grow: first quarter %vs, last quarter %vs", head, tail)
	}
	checkPinned(t, "fig10", rows)
}

func TestGemmVsAuMShape(t *testing.T) {
	cfg := DefaultGemmVsAuMConfig(testParams)
	cfg.Steps = 3
	rows, err := GemmVsAuM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Paper: AuM reflects both an addition and a deletion, so it takes
	// roughly twice as long as GEMM's single addition.
	slower := 0
	for _, r := range rows {
		if r.AuM > r.GEMMResponse {
			slower++
		}
		if r.GEMMTotal < r.GEMMResponse {
			t.Errorf("step %d: total %v < response %v", r.Step, r.GEMMTotal, r.GEMMResponse)
		}
	}
	if slower < 2 {
		t.Errorf("AuM slower than GEMM response in only %d/3 steps", slower)
	}
	checkPinned(t, "gemm", rows)
}

func TestECUTPlusBudgetShape(t *testing.T) {
	cfg := DefaultBudgetConfig(testParams)
	cfg.Fractions = []float64{0, 0.5, 1}
	rows, err := ECUTPlusBudget(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].PairsMaterialized != 0 {
		t.Errorf("fraction 0 materialized %d pairs", rows[0].PairsMaterialized)
	}
	// More budget → more pairs and fewer TID entries fetched.
	for i := 1; i < len(rows); i++ {
		if rows[i].PairsMaterialized < rows[i-1].PairsMaterialized {
			t.Errorf("pairs not monotone: %d then %d", rows[i-1].PairsMaterialized, rows[i].PairsMaterialized)
		}
		if rows[i].EntriesRead > rows[i-1].EntriesRead {
			t.Errorf("entries read not monotone: %d then %d", rows[i-1].EntriesRead, rows[i].EntriesRead)
		}
	}
	checkPinned(t, "ecutplus", rows)
}

func TestKappaChangeShape(t *testing.T) {
	rows, err := KappaChange(DefaultKappaConfig(testParams))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	raise, lower := rows[0], rows[1]
	if raise.Candidates != 0 {
		t.Errorf("raising κ counted %d candidates, want 0", raise.Candidates)
	}
	if lower.Candidates == 0 {
		t.Error("lowering κ counted no candidates")
	}
	if raise.Frequent >= lower.Frequent {
		t.Errorf("|L| raise %d >= |L| lower %d", raise.Frequent, lower.Frequent)
	}
	checkPinned(t, "kappa", rows)
}

func TestCountEnvBasics(t *testing.T) {
	env, err := NewCountEnv("2M.20L.1I.4pats.4plen", 0.01, 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	if env.NumTx < 1000 {
		t.Fatalf("NumTx = %d", env.NumTx)
	}
	if len(env.Border) == 0 {
		t.Fatal("empty border")
	}
	if got := env.CandidateSet(5); len(got) != 5 {
		t.Fatalf("CandidateSet(5) = %d", len(got))
	}
	if got := env.CandidateSet(1 << 30); len(got) != len(env.Border) {
		t.Fatalf("oversized CandidateSet = %d", len(got))
	}
	if cs := env.Counters(); len(cs) != 3 || cs[1].Name() != "ECUT" {
		t.Fatalf("Counters = %v", cs)
	}
	if _, err := NewCountEnv("bogus", 1, 0.01, 1); err == nil {
		t.Fatal("bogus spec accepted")
	}
}
