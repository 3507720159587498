package bench

import (
	"encoding/json"
	"io"
	"runtime"

	"github.com/demon-mining/demon/internal/obs"
	"github.com/demon-mining/demon/internal/version"
)

// Artifact is the machine-readable counterpart of demon-bench's stdout
// tables: the typed rows of every experiment that ran, each with the
// instrumentation-registry delta it produced, so per-phase timings and
// per-strategy byte counters land in the file demon-bench -json writes
// instead of only on a terminal.
type Artifact struct {
	// Build identifies the binary that produced the artifact, so a number in
	// it can always be traced to a revision and toolchain.
	Build      version.Info `json:"build"`
	GoMaxProcs int          `json:"gomaxprocs"`
	NumCPU     int          `json:"numcpu"`

	Scale       float64            `json:"scale"`
	Seed        int64              `json:"seed"`
	Experiments []ExperimentResult `json:"experiments"`
}

// ExperimentResult is one experiment's rows plus its metrics delta.
type ExperimentResult struct {
	Name string `json:"name"`
	// Rows holds the experiment's typed row slice (Fig2Row, MaintainRow, …)
	// and marshals with those types' field names.
	Rows any `json:"rows"`
	// Metrics is the registry delta attributable to this experiment: what
	// the instrumented maintainers recorded between the previous experiment's
	// snapshot and this one's. Nil when the registry was not enabled.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// ArtifactBuilder accumulates experiment results and per-experiment registry
// deltas. A nil builder ignores every call, so the CLI can thread one through
// unconditionally.
type ArtifactBuilder struct {
	reg  *obs.Registry
	art  Artifact
	last obs.Snapshot
}

// NewArtifactBuilder starts an artifact against the given registry (usually
// obs.Default, already enabled by the caller), stamped with the build
// identity and the effective seed and scale of the run.
func NewArtifactBuilder(reg *obs.Registry, scale float64, seed int64) *ArtifactBuilder {
	art := Artifact{
		Build:      version.Get(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Scale:      scale,
		Seed:       seed,
	}
	return &ArtifactBuilder{reg: reg, art: art, last: reg.Snapshot()}
}

// Add records one finished experiment: its rows and the registry movement
// since the previous Add.
func (b *ArtifactBuilder) Add(name string, rows any) {
	if b == nil {
		return
	}
	res := ExperimentResult{Name: name, Rows: rows}
	if b.reg.Enabled() {
		cur := b.reg.Snapshot()
		delta := cur.Delta(b.last)
		res.Metrics = &delta
		b.last = cur
	}
	b.art.Experiments = append(b.art.Experiments, res)
}

// WriteJSON renders the artifact as indented JSON.
func (b *ArtifactBuilder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b.art)
}
