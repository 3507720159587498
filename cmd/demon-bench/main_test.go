package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/demon-mining/demon/internal/bench"
	"github.com/demon-mining/demon/internal/obs"
)

func TestRunSingleExperiment(t *testing.T) {
	if err := run(map[string]bool{"fig8": true}, 0.02, 1, 0, "", nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunNoSelection(t *testing.T) {
	if err := run(map[string]bool{}, 0.02, 1, 0, "", nil); err == nil {
		t.Fatal("accepted empty selection")
	}
	if err := run(map[string]bool{"bogus": true}, 0.02, 1, 0, "", nil); err == nil {
		t.Fatal("accepted unknown experiment name")
	}
}

// TestRunRejectsTypo: a name the registry does not hold fails the whole run
// up front, naming the typo and the registered names, instead of silently
// running the rest.
func TestRunRejectsTypo(t *testing.T) {
	for _, sel := range []map[string]bool{
		{"fig3": true, "figg3": true},
		{"all": true, "figg3": true},
	} {
		err := run(sel, 0.02, 1, 0, "", nil)
		if err == nil {
			t.Fatalf("selection %v: accepted the unknown name figg3", sel)
		}
		for _, want := range []string{`"figg3"`, "fig2", "dbscan"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("selection %v: error %q does not mention %s", sel, err, want)
			}
		}
	}
}

// TestArtifactAndMetrics exercises the acceptance path end to end: a run
// covering BORDERS (all three counting strategies), BIRCH+ and the pattern
// detector must produce a metrics snapshot with per-phase timers and
// per-strategy byte counters, and a JSON artifact with per-experiment rows
// and metric deltas.
func TestArtifactAndMetrics(t *testing.T) {
	prev := obs.SetDefault(obs.NewRegistry())
	defer obs.SetDefault(prev)

	art := bench.NewArtifactBuilder(obs.Default(), 0.02, 1)
	selected := map[string]bool{"fig2": true, "fig4": true, "fig8": true, "fig10": true}
	if err := run(selected, 0.02, 1, 0, "", art); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	jsonOut := filepath.Join(dir, "bench.json")
	metricsOut := filepath.Join(dir, "metrics.json")
	if err := writeArtifact(art, jsonOut); err != nil {
		t.Fatal(err)
	}
	if err := obs.Dump(metricsOut, obs.Default()); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(metricsOut)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("metrics snapshot is not valid JSON: %v", err)
	}
	for _, name := range []string{
		"borders.count.ptscan.bytes", "borders.count.ecut.bytes", "borders.count.ecutplus.bytes",
		"borders.count.ptscan.candidates", "borders.count.ecut.candidates", "borders.count.ecutplus.candidates",
	} {
		if snap.Counters[name] <= 0 {
			t.Errorf("counter %s missing or zero in snapshot: %v", name, snap.Counters)
		}
	}
	for _, name := range []string{
		"borders.detect.ns", "borders.update.ns", "birch.insert.ns", "birch.phase2.ns",
		"pattern.addblock.ns", "pattern.deviation.ns", "focus.deviation.ns",
	} {
		if snap.Timers[name].Count == 0 {
			t.Errorf("timer %s missing from snapshot", name)
		}
	}

	raw, err = os.ReadFile(jsonOut)
	if err != nil {
		t.Fatal(err)
	}
	var artifact struct {
		Build struct {
			Module string `json:"module"`
			Go     string `json:"go"`
		} `json:"build"`
		GoMaxProcs  int     `json:"gomaxprocs"`
		Scale       float64 `json:"scale"`
		Seed        int64   `json:"seed"`
		Experiments []struct {
			Name    string          `json:"name"`
			Rows    json.RawMessage `json:"rows"`
			Metrics *obs.Snapshot   `json:"metrics"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(raw, &artifact); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if artifact.Build.Module == "" || artifact.Build.Go == "" || artifact.GoMaxProcs <= 0 {
		t.Errorf("artifact lacks a build identity stamp: %+v", artifact.Build)
	}
	if artifact.Scale != 0.02 || artifact.Seed != 1 {
		t.Errorf("artifact seed/scale = %v/%v, want 1/0.02", artifact.Seed, artifact.Scale)
	}
	if len(artifact.Experiments) != 4 {
		t.Fatalf("artifact has %d experiments, want 4", len(artifact.Experiments))
	}
	byName := map[string]json.RawMessage{}
	for i, e := range artifact.Experiments {
		// Registry order, whatever order the selection named them in.
		if want := []string{"fig2", "fig4", "fig8", "fig10"}[i]; e.Name != want {
			t.Errorf("artifact experiment %d is %s, want %s", i, e.Name, want)
		}
		byName[e.Name] = e.Rows
		if e.Metrics == nil {
			t.Errorf("experiment %s has no metrics delta", e.Name)
		}
	}
	var fig2Rows []bench.Fig2Row
	if err := json.Unmarshal(byName["fig2"], &fig2Rows); err != nil {
		t.Fatalf("fig2 rows: %v", err)
	}
	if len(fig2Rows) == 0 {
		t.Fatal("fig2 artifact has no rows")
	}
	for _, r := range fig2Rows {
		if r.PTScanIO.BytesRead <= 0 || r.ECUTIO.BytesRead <= 0 || r.ECUTPlusIO.BytesRead <= 0 {
			t.Fatalf("fig2 row |S|=%d missing per-strategy I/O deltas: %+v", r.NumSets, r)
		}
		// The §3.1.1 claim: TID-list counting fetches far less data than a
		// full scan of the transaction data.
		if r.ECUTIO.BytesRead >= r.PTScanIO.BytesRead {
			t.Errorf("fig2 |S|=%d: ECUT read %d bytes >= PT-Scan's %d", r.NumSets, r.ECUTIO.BytesRead, r.PTScanIO.BytesRead)
		}
	}
}
