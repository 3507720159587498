package bench

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Params are the knobs demon-bench hands every experiment. Scale and Seed
// replace the defaults of the experiment's own config; Workers and Backends
// override the sweeps of the experiments that have them (scaling) and are
// ignored by the rest.
type Params struct {
	Scale float64
	Seed  int64
	// Workers > 0 narrows a worker-count sweep to {1, Workers}.
	Workers int
	// Backends, when non-empty, replaces a storage-backend sweep.
	Backends []string
}

// Experiment is one named entry of the lab: Run builds the experiment's
// default configuration at p, measures, renders the table to w and returns
// the typed rows (Fig2Row, MaintainRow, …) for the JSON artifact.
type Experiment struct {
	Name string
	Run  func(p Params, w io.Writer) (rows any, err error)
}

// entry ties an experiment's measuring function to its table writer.
func entry[R any](name string, rows func(Params) (R, error), table func(io.Writer, R)) Experiment {
	return Experiment{Name: name, Run: func(p Params, w io.Writer) (any, error) {
		r, err := rows(p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		table(w, r)
		return r, nil
	}}
}

// maintainEntry is one of Figures 4–7, which share a harness.
func maintainEntry(figure int) Experiment {
	return entry(fmt.Sprintf("fig%d", figure), func(p Params) ([]MaintainRow, error) {
		c, err := DefaultMaintainConfig(figure, p.Scale)
		if err != nil {
			return nil, err
		}
		c.Seed = p.Seed
		return Maintain(c)
	}, WriteMaintain)
}

// experiments is the registry, in the order demon-bench runs and reports
// them: the paper's figures, then the ablations and extensions.
var experiments = []Experiment{
	entry("fig2", func(p Params) ([]Fig2Row, error) {
		c := DefaultFig2Config(p.Scale)
		c.Seed = p.Seed
		return Figure2(c)
	}, WriteFig2),
	entry("fig3", func(p Params) ([]Fig3Row, error) {
		c := DefaultFig3Config(p.Scale)
		c.Seed = p.Seed
		return Figure3(c)
	}, WriteFig3),
	maintainEntry(4),
	maintainEntry(5),
	maintainEntry(6),
	maintainEntry(7),
	entry("fig8", func(p Params) ([]Fig8Row, error) {
		c := DefaultFig8Config(p.Scale)
		c.Seed = p.Seed
		return Figure8(c)
	}, WriteFig8),
	entry("fig9", func(p Params) (*Fig9Result, error) {
		c := DefaultFig9Config()
		c.Seed = p.Seed
		return Figure9(c)
	}, WriteFig9),
	entry("fig10", func(p Params) ([]Fig10Row, error) {
		c := DefaultFig10Config()
		c.Seed = p.Seed
		return Figure10(c)
	}, WriteFig10),
	entry("gemm", func(p Params) ([]GemmVsAuMRow, error) {
		c := DefaultGemmVsAuMConfig(p.Scale)
		c.Seed = p.Seed
		return GemmVsAuM(c)
	}, WriteGemmVsAuM),
	entry("ecutplus", func(p Params) ([]BudgetRow, error) {
		c := DefaultBudgetConfig(p.Scale)
		c.Seed = p.Seed
		return ECUTPlusBudget(c)
	}, WriteBudget),
	entry("kappa", func(p Params) ([]KappaRow, error) {
		c := DefaultKappaConfig(p.Scale)
		c.Seed = p.Seed
		return KappaChange(c)
	}, WriteKappa),
	entry("fup", func(p Params) ([]FupRow, error) {
		c := DefaultFupConfig(p.Scale)
		c.Seed = p.Seed
		return FupVsBorders(c)
	}, WriteFupVsBorders),
	entry("granularity", func(p Params) ([]GranularityRow, error) {
		c := DefaultGranularityConfig()
		c.Seed = p.Seed
		return Granularity(c)
	}, WriteGranularity),
	entry("scaling", func(p Params) ([]ScalingRow, error) {
		c := DefaultScalingConfig(p.Scale)
		c.Seed = p.Seed
		if p.Workers > 0 {
			c.Workers = []int{1, p.Workers}
		}
		c.Backends = p.Backends
		return Scaling(c)
	}, WriteScaling),
	entry("dbscan", func(p Params) (*DBSCANCostRow, error) {
		c := DefaultDBSCANCostConfig()
		c.Seed = p.Seed
		return DBSCANCost(c)
	}, WriteDBSCANCost),
}

// Select resolves a set of experiment names to registry entries, in registry
// order whatever order they were named in. "all" selects the whole registry;
// a name the registry does not hold is an error that lists the ones it does.
func Select(names map[string]bool) ([]Experiment, error) {
	known := make([]string, len(experiments))
	for i, e := range experiments {
		known[i] = e.Name
	}
	var unknown []string
	for n := range names {
		if n != "all" && !slices.Contains(known, n) {
			unknown = append(unknown, strconv.Quote(n))
		}
	}
	registered := "registered: all, " + strings.Join(known, ", ")
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("unknown experiment %s (%s)", strings.Join(unknown, ", "), registered)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no experiment selected (%s)", registered)
	}
	var picked []Experiment
	for _, e := range experiments {
		if names["all"] || names[e.Name] {
			picked = append(picked, e)
		}
	}
	return picked, nil
}
