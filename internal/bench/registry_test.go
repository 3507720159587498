package bench

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// TestRegistry runs every registered experiment through the same entry point
// demon-bench uses, at the scale where every dataset size sits on its floor:
// each must return rows and render a table under the title and column header
// it has always had (EXPERIMENTS.md quotes them), and the registry must hold
// them in demon-bench's long-standing run order.
func TestRegistry(t *testing.T) {
	maintainCols := "     block    detection    PT-Scan:upd     ECUT:upd    ECUT+:upd      |S|"
	want := []struct{ name, title, cols string }{
		{"fig2", "Figure 2: counting time vs #itemsets (seconds; MB read)",
			"dataset                        |S|      PT-Scan         ECUT        ECUT+      PT:MB    ECUT:MB   ECUT+:MB"},
		{"fig3", "Figure 3: % extra space for frequent 2-itemset TID-lists",
			"dataset                         κ     |L2|  extra space %"},
		{"fig4", "Figure 4: maintenance time vs new-block size (seconds)", maintainCols},
		{"fig5", "Figure 5: maintenance time vs new-block size (seconds)", maintainCols},
		{"fig6", "Figure 6: maintenance time vs new-block size (seconds)", maintainCols},
		{"fig7", "Figure 7: maintenance time vs new-block size (seconds)", maintainCols},
		{"fig8", "Figure 8: BIRCH vs BIRCH+ time vs new-block size (seconds)",
			"     block        BIRCH       BIRCH+      phase 2"},
		{"fig9", "Figure 9: patterns discovered in the (simulated) web proxy traces",
			"--- granularity 4 hr (anomalous Monday excluded from workday patterns: true)"},
		{"fig10", "Figure 10: time to update compact sequences per block (seconds)",
			" block period                 kind                   time  deviation     extend    similar"},
		{"gemm", "Ablation: GEMM vs AuM response time, BSS=<1...1> (seconds)",
			"  step   GEMM:response   GEMM:total          AuM"},
		{"ecutplus", "Ablation: ECUT+ pair-materialization budget sweep",
			"  fraction    pairs   count time   entries read"},
		{"kappa", "Ablation: support-threshold change κ → κ'",
			"    from       to         time   candidates        |L|"},
		{"fup", "Ablation: FUP vs BORDERS maintenance per block arrival",
			"  step        FUP      BORDERS   FUP:oldscans    BORDERS:upd    agree"},
		{"granularity", "Extension: block-granularity selection (coverage − fragmentation)",
			" granularity   blocks   patterns   coverage    score  selected"},
		{"scaling", "Scaling: parallel ingestion vs worker count and backend (identical store digest required)",
			"       backend  workers     maintain       ingest   speedup        |L|  identical"},
		{"dbscan", "Ablation: incremental DBSCAN insertion vs deletion cost",
			"     insert queries/op      delete queries/op    ratio   clusters"},
	}
	if len(experiments) != len(want) {
		t.Fatalf("registry holds %d experiments, want %d", len(experiments), len(want))
	}
	for i, e := range experiments {
		w := want[i]
		if e.Name != w.name {
			t.Fatalf("registry entry %d is %s, want %s", i, e.Name, w.name)
		}
		t.Run(e.Name, func(t *testing.T) {
			if raceDetector {
				// The default configurations take ~90 s in all and over ten minutes
				// under the race detector, which finds nothing in this
				// sequential glue; the Shape tests run every harness under it
				// at reduced sizes.
				t.Skip("default-size experiments are not run under the race detector")
			}
			var buf bytes.Buffer
			rows, err := e.Run(Params{Scale: 0.001, Seed: 1}, &buf)
			if err != nil {
				t.Fatal(err)
			}
			if v := reflect.ValueOf(rows); v.Kind() == reflect.Slice && v.Len() == 0 || v.Kind() == reflect.Ptr && v.IsNil() {
				t.Errorf("no rows: %#v", rows)
			}
			lines := strings.Split(buf.String(), "\n")
			if len(lines) < 3 || lines[0] != w.title || lines[1] != w.cols {
				t.Errorf("table starts\n%s\nwant\n%s\n%s", strings.Join(lines[:min(2, len(lines))], "\n"), w.title, w.cols)
			}
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
	if err != nil || names(got) != names(experiments) {
		t.Errorf("Select(all) = %s, %v; want the whole registry", names(got), err)
	}
}
