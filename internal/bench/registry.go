package bench

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Params are the knobs demon-bench hands every experiment: each experiment's
// DefaultXConfig builds its configuration from them.
type Params struct {
	Scale float64
	Seed  int64
}

// Experiment is one named entry of the lab. Run builds the experiment's
// default configuration at p, measures, renders the table to w and returns
// the typed rows (Fig2Row, MaintainRow, …) for the JSON artifact. Table
// renders rows of that type that somebody else produced, such as a test's
// run of a trimmed configuration.
type Experiment struct {
	Name  string
	Run   func(p Params, w io.Writer) (rows any, err error)
	Table func(w io.Writer, rows any)
}

// entry is an experiment as data: its default configuration at a Params, the
// driver that measures a configuration, and the table writer for its rows.
func entry[C, R any](name string, defaults func(Params) C, run func(C) (R, error), table func(io.Writer, R)) Experiment {
	return Experiment{
		Name: name,
		Run: func(p Params, w io.Writer) (any, error) {
			rows, err := run(defaults(p))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			table(w, rows)
			return rows, nil
		},
		Table: func(w io.Writer, rows any) { table(w, rows.(R)) },
	}
}

// maintainDefaults is DefaultMaintainConfig for one of Figures 4–7, which
// share a driver.
func maintainDefaults(figure int) func(Params) MaintainConfig {
	return func(p Params) MaintainConfig {
		cfg, err := DefaultMaintainConfig(figure, p)
		if err != nil {
			panic(err) // the registry below names 4–7 only
		}
		return cfg
	}
}

// experiments is the registry, in the order demon-bench runs and reports
// them: the paper's figures, then the ablations and extensions.
var experiments = []Experiment{
	entry("fig2", DefaultFig2Config, Figure2, WriteFig2),
	entry("fig3", DefaultFig3Config, Figure3, WriteFig3),
	entry("fig4", maintainDefaults(4), Maintain, WriteMaintain),
	entry("fig5", maintainDefaults(5), Maintain, WriteMaintain),
	entry("fig6", maintainDefaults(6), Maintain, WriteMaintain),
	entry("fig7", maintainDefaults(7), Maintain, WriteMaintain),
	entry("fig8", DefaultFig8Config, Figure8, WriteFig8),
	entry("fig9", DefaultFig9Config, Figure9, WriteFig9),
	entry("fig10", DefaultFig10Config, Figure10, WriteFig10),
	entry("gemm", DefaultGemmVsAuMConfig, GemmVsAuM, WriteGemmVsAuM),
	entry("ecutplus", DefaultBudgetConfig, ECUTPlusBudget, WriteBudget),
	entry("kappa", DefaultKappaConfig, KappaChange, WriteKappa),
	entry("fup", DefaultFupConfig, FupVsBorders, WriteFupVsBorders),
	entry("granularity", DefaultGranularityConfig, Granularity, WriteGranularity),
	entry("dbscan", DefaultDBSCANCostConfig, DBSCANCost, WriteDBSCANCost),
}

// Names lists the registry's experiments in run order.
func Names() []string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.Name
	}
	return names
}

// Select resolves a set of experiment names to registry entries, in registry
// order whatever order they were named in. "all" selects the whole registry;
// a name the registry does not hold is an error that lists the ones it does.
func Select(names map[string]bool) ([]Experiment, error) {
	known := Names()
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
