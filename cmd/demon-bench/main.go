// Command demon-bench regenerates the tables and figures of the DEMON
// paper's evaluation (Section 5) plus the repository's ablations.
//
// Usage:
//
//	demon-bench -exp all -scale 0.1
//	demon-bench -exp fig2,fig8 -scale 1.0 -seed 7
//	demon-bench -exp all -json bench.json -metrics-out metrics.json
//
// Experiments are the entries of internal/bench's registry — the one place a
// paper experiment is defined, also run by `go test -bench BenchmarkLab
// ./internal/bench` — in its order: fig2 … fig10, gemm (GEMM vs AuM),
// ecutplus (pair-budget sweep), kappa (threshold change), fup (FUP vs
// BORDERS), granularity (automatic block-granularity selection), dbscan
// (insertion vs deletion cost). -exp's help lists them from the registry; a
// name it does not hold is an error. Dataset sizes scale with -scale; 1.0
// reproduces the paper's sizes, the default 0.1 runs on a laptop.
//
// -json writes a machine-readable artifact with every experiment's rows and
// its per-experiment instrumentation delta (per-phase timings, per-strategy
// byte counters); -metrics-out writes the cumulative registry snapshot on
// exit; -pprof-addr serves /metricsz and /debug/pprof while running.
package main

import (
	"context"
	"fmt"
	"os"
	"strings"

	"github.com/demon-mining/demon/internal/bench"
	"github.com/demon-mining/demon/internal/cli"
	"github.com/demon-mining/demon/internal/obs"
)

func main() { cli.Main("demon-bench", setup) }

func setup(fs *cli.FlagSet) func(context.Context) error {
	exp := fs.String("exp", "all", "comma-separated experiments ("+strings.Join(bench.Names(), ", ")+") or 'all'")
	scale := fs.Float64("scale", 0.1, "dataset scale factor (1.0 = paper sizes)")
	seed := fs.Int64("seed", 1, "random seed for data generation")
	jsonOut := fs.String("json", "", "write a JSON artifact of all experiment rows and per-experiment metrics to this file")
	fs.MetricsOutFlag()
	fs.PprofAddrFlag()
	return func(context.Context) error {
		selected := map[string]bool{}
		for _, e := range strings.Split(*exp, ",") {
			selected[strings.TrimSpace(e)] = true
		}
		var art *bench.ArtifactBuilder
		if *jsonOut != "" {
			art = bench.NewArtifactBuilder(obs.Enable(), *scale, *seed)
		}
		if err := run(selected, *scale, *seed, art); err != nil {
			return err
		}
		return writeArtifact(art, *jsonOut)
	}
}

func writeArtifact(art *bench.ArtifactBuilder, jsonOut string) error {
	if jsonOut == "" {
		return nil
	}
	f, err := os.Create(jsonOut)
	if err != nil {
		return err
	}
	if err := art.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// run executes the selected registry entries in registry order, printing
// each one's table and adding its rows to the artifact.
func run(selected map[string]bool, scale float64, seed int64, art *bench.ArtifactBuilder) error {
	exps, err := bench.Select(selected)
	if err != nil {
		return err
	}
	for _, e := range exps {
		rows, err := e.Run(bench.Params{Scale: scale, Seed: seed}, os.Stdout)
		if err != nil {
			return err
		}
		fmt.Println()
		art.Add(e.Name, rows)
	}
	return nil
}
