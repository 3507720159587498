package bench

import (
	"bytes"
	"io"
	"slices"
	"strings"
	"testing"
)

// pin is one experiment's title and column-header lines as every table has
// always had them (EXPERIMENTS.md quotes them), with the least rows, made by
// hand, under which the writer prints both.
type pin struct {
	name, title, cols string
	rows              any
}

const maintainCols = "     block    detection    PT-Scan:upd     ECUT:upd    ECUT+:upd      |S|"

// maintainRows is what Maintain stamps on a row of the given figure.
func maintainRows(figure int) []MaintainRow {
	cfg, _ := DefaultMaintainConfig(figure, testParams)
	return []MaintainRow{{Figure: cfg.Figure}}
}

// pins lists the registry in demon-bench's long-standing run order.
var pins = []pin{
	{"fig2", "Figure 2: counting time vs #itemsets (seconds; MB read)",
		"dataset                        |S|      PT-Scan         ECUT        ECUT+      PT:MB    ECUT:MB   ECUT+:MB", []Fig2Row(nil)},
	{"fig3", "Figure 3: % extra space for frequent 2-itemset TID-lists",
		"dataset                         κ     |L2|  extra space %", []Fig3Row(nil)},
	{"fig4", "Figure 4: maintenance time vs new-block size (seconds)", maintainCols, maintainRows(4)},
	{"fig5", "Figure 5: maintenance time vs new-block size (seconds)", maintainCols, maintainRows(5)},
	{"fig6", "Figure 6: maintenance time vs new-block size (seconds)", maintainCols, maintainRows(6)},
	{"fig7", "Figure 7: maintenance time vs new-block size (seconds)", maintainCols, maintainRows(7)},
	{"fig8", "Figure 8: BIRCH vs BIRCH+ time vs new-block size (seconds)",
		"     block        BIRCH       BIRCH+      phase 2", []Fig8Row(nil)},
	{"fig9", "Figure 9: patterns discovered in the (simulated) web proxy traces",
		"--- granularity 4 hr (anomalous Monday excluded from workday patterns: true)", &Fig9Result{
			Patterns:        []Fig9Pattern{{GranularityHours: 4, Labels: []string{"first", "last"}}},
			AnomalyExcluded: map[int]bool{4: true},
		}},
	{"fig10", "Figure 10: time to update compact sequences per block (seconds)",
		" block period                 kind                   time  deviation     extend    similar", []Fig10Row(nil)},
	{"gemm", "Ablation: GEMM vs AuM response time, BSS=<1...1> (seconds)",
		"  step   GEMM:response   GEMM:total          AuM", []GemmVsAuMRow(nil)},
	{"ecutplus", "Ablation: ECUT+ pair-materialization budget sweep",
		"  fraction    pairs   count time   entries read", []BudgetRow(nil)},
	{"kappa", "Ablation: support-threshold change κ → κ'",
		"    from       to         time   candidates        |L|", []KappaRow(nil)},
	{"fup", "Ablation: FUP vs BORDERS maintenance per block arrival",
		"  step        FUP      BORDERS   FUP:oldscans    BORDERS:upd    agree", []FupRow(nil)},
	{"granularity", "Extension: block-granularity selection (coverage − fragmentation)",
		" granularity   blocks   patterns   coverage    score  selected", []GranularityRow(nil)},
	{"dbscan", "Ablation: incremental DBSCAN insertion vs deletion cost",
		"     insert queries/op      delete queries/op    ratio   clusters", &DBSCANCostRow{}},
}

// checkHeader checks a rendered table's first two lines.
func checkHeader(t *testing.T, table, title, cols string) {
	t.Helper()
	lines := strings.Split(table, "\n")
	if len(lines) < 3 || lines[0] != title || lines[1] != cols {
		t.Errorf("table starts\n%s\nwant\n%s\n%s", strings.Join(lines[:min(2, len(lines))], "\n"), title, cols)
	}
}

// render renders rows somebody else produced — a Shape test, from its trimmed
// configuration — through the registry's table writer for the named
// experiment, and returns the experiment's pin with the table.
func render(t *testing.T, name string, rows any) (pin, string) {
	t.Helper()
	i := slices.IndexFunc(pins, func(p pin) bool { return p.name == name })
	if i < 0 || i >= len(experiments) || experiments[i].Name != name {
		t.Fatalf("no experiment %s at its pin's place in the registry", name)
	}
	var buf bytes.Buffer
	experiments[i].Table(&buf, rows)
	return pins[i], buf.String()
}

// checkPinned checks that rows render under the experiment's pinned title
// and column lines.
func checkPinned(t *testing.T, name string, rows any) {
	t.Helper()
	p, table := render(t, name, rows)
	checkHeader(t, table, p.title, p.cols)
}

// TestRegistry: the registry holds the fifteen experiments in demon-bench's
// run order, each entry's writer renders its pinned header over rows made by
// hand, and the cheapest entry runs end to end through the entry point
// demon-bench uses, returning rows and rendering that table. The other
// drivers are not entered here: each runs once, in its Shape test, which
// renders through the same writers, and the generic Run holds no per-entry
// glue for a second pass to cover.
func TestRegistry(t *testing.T) {
	if len(experiments) != len(pins) {
		t.Fatalf("registry holds %d experiments, want %d", len(experiments), len(pins))
	}
	for i, e := range experiments {
		p := pins[i]
		if e.Name != p.name {
			t.Fatalf("registry entry %d is %s, want %s", i, e.Name, p.name)
		}
		t.Run(e.Name, func(t *testing.T) {
			checkPinned(t, e.Name, p.rows)
			if e.Name != "fig8" {
				return
			}
			var buf bytes.Buffer
			rows, err := e.Run(Params{Scale: 0.001, Seed: 1}, &buf)
			if err != nil {
				t.Fatal(err)
			}
			if r, ok := rows.([]Fig8Row); !ok || len(r) == 0 {
				t.Errorf("no rows: %#v", rows)
			}
			checkHeader(t, buf.String(), p.title, p.cols)
		})
	}
}

// TestSelect: a selection runs in registry order and "all" is the registry
// itself (demon-bench's tests cover the rejected selections).
func TestSelect(t *testing.T) {
	names := func(exps []Experiment) string {
		var s []string
		for _, e := range exps {
			s = append(s, e.Name)
		}
		return strings.Join(s, ",")
	}
	got, err := Select(map[string]bool{"kappa": true, "fig2": true})
	if err != nil || names(got) != "fig2,kappa" {
		t.Errorf("Select(kappa, fig2) = %s, %v; want fig2,kappa in registry order", names(got), err)
	}
	got, err = Select(map[string]bool{"all": true})
	if err != nil || names(got) != strings.Join(Names(), ",") {
		t.Errorf("Select(all) = %s, %v; want the whole registry", names(got), err)
	}
}

// BenchmarkLab is the lab under the Go benchmark harness: one sub-benchmark
// per registry entry, one run of the entry's default configuration at a fixed
// small scale per iteration, so relative numbers can be compared with
// -bench/-benchmem across machines and changes. Run cmd/demon-bench -scale
// 1.0 for paper-sized runs.
func BenchmarkLab(b *testing.B) {
	for _, e := range experiments {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(Params{Scale: 0.02, Seed: 1}, io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
