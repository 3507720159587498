package bench

import "testing"

func TestFupVsBordersShape(t *testing.T) {
	cfg := DefaultFupConfig(testParams)
	cfg.Steps = 3
	rows, err := FupVsBorders(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// Built-in cross-check: both maintainers must agree on the
		// frequent sets at every step.
		if !r.FrequentAgree {
			t.Fatalf("step %d: FUP and BORDERS disagree", r.Step)
		}
		if r.FUPOldScans < 0 {
			t.Fatalf("step %d: negative scan count", r.Step)
		}
	}
	// The first step bootstraps both from empty; later steps with changes
	// make FUP rescan the old database level by level.
	sawMultiScan := false
	for _, r := range rows[1:] {
		if r.FUPOldScans > 1 {
			sawMultiScan = true
		}
	}
	if !sawMultiScan {
		t.Log("note: no step required multiple FUP old-DB scans at this scale")
	}
	checkPinned(t, "fup", rows)
}

func TestGranularityShape(t *testing.T) {
	cfg := DefaultGranularityConfig(testParams)
	cfg.Granularities = []int{6, 24}
	cfg.RequestsPerHour = 150
	rows, err := Granularity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	selected := 0
	for _, r := range rows {
		if r.Blocks <= 0 {
			t.Fatalf("granularity %dh has %d blocks", r.GranularityHours, r.Blocks)
		}
		if r.Coverage < 0 || r.Coverage > 1 {
			t.Fatalf("coverage %v outside [0,1]", r.Coverage)
		}
		if r.Selected {
			selected++
		}
		// The trace has strong day/night structure: some multi-block
		// pattern must exist at every granularity.
		if r.MultiPatterns == 0 {
			t.Fatalf("granularity %dh found no multi-block patterns", r.GranularityHours)
		}
	}
	if selected != 1 {
		t.Fatalf("%d granularities selected, want exactly 1", selected)
	}
	checkPinned(t, "granularity", rows)
}

func TestDBSCANCostShape(t *testing.T) {
	cfg := DefaultDBSCANCostConfig(testParams)
	cfg.Points = 1200
	cfg.Ops = 80
	row, err := DBSCANCost(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The Section 3.2.4 claim: deletion costs more than insertion.
	if row.Ratio <= 1 {
		t.Fatalf("delete/insert query ratio = %v, want > 1", row.Ratio)
	}
	if row.FinalClusters < 1 {
		t.Fatalf("final clusters = %d", row.FinalClusters)
	}
	checkPinned(t, "dbscan", row)
}
