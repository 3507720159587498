package bench

import (
	"fmt"
	"io"
	"math/rand"

	"github.com/demon-mining/demon/internal/cf"
	"github.com/demon-mining/demon/internal/dbscan"
)

// DBSCANCostConfig parameterizes the insertion-vs-deletion cost ablation for
// incremental DBSCAN — the Section 3.2.4 argument for GEMM made measurable:
// certain model classes pay more to delete than to insert, so maintaining w
// insert-only models beats add+delete maintenance.
type DBSCANCostConfig struct {
	// Points is the clustered population size.
	Points int
	// Clusters and Dim shape the data.
	Clusters, Dim int
	// Eps / MinPts are the DBSCAN parameters.
	Eps    float64
	MinPts int
	// Ops is the number of random insertions and deletions measured.
	Ops  int
	Seed int64
}

// DefaultDBSCANCostConfig returns the ablation defaults at p's seed; the
// population does not scale.
func DefaultDBSCANCostConfig(p Params) DBSCANCostConfig {
	return DBSCANCostConfig{
		Points:   4000,
		Clusters: 10,
		Dim:      2,
		Eps:      2.0,
		MinPts:   5,
		Ops:      300,
		Seed:     p.Seed,
	}
}

// DBSCANCostRow summarizes the measured per-operation costs.
type DBSCANCostRow struct {
	// InsertQueries / DeleteQueries are the mean ε-neighbourhood queries
	// per operation — the data-access cost driver.
	InsertQueries float64
	DeleteQueries float64
	// Ratio is DeleteQueries / InsertQueries.
	Ratio float64
	// FinalClusters sanity-checks the run.
	FinalClusters int
}

// DBSCANCost builds a clustered population, then measures the neighbourhood
// queries of random insertions versus random deletions.
func DBSCANCost(cfg DBSCANCostConfig) (*DBSCANCostRow, error) {
	inc, err := dbscan.NewIncremental(dbscan.Config{Eps: cfg.Eps, MinPts: cfg.MinPts})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	centers := make([]cf.Point, cfg.Clusters)
	for i := range centers {
		c := make(cf.Point, cfg.Dim)
		for d := range c {
			c[d] = rng.Float64() * 100
		}
		centers[i] = c
	}
	draw := func() cf.Point {
		c := centers[rng.Intn(len(centers))]
		p := make(cf.Point, cfg.Dim)
		for d := range p {
			p[d] = c[d] + rng.NormFloat64()
		}
		return p
	}

	var ids []int
	for i := 0; i < cfg.Points; i++ {
		id, err := inc.Insert(draw())
		if err != nil {
			return nil, err
		}
		ids = append(ids, id)
	}

	before := inc.NeighbourQueries()
	for i := 0; i < cfg.Ops; i++ {
		id, err := inc.Insert(draw())
		if err != nil {
			return nil, err
		}
		ids = append(ids, id)
	}
	insertQ := float64(inc.NeighbourQueries()-before) / float64(cfg.Ops)

	before = inc.NeighbourQueries()
	deleted := 0
	for i := 0; deleted < cfg.Ops && i < len(ids); i++ {
		idx := rng.Intn(len(ids))
		if err := inc.Delete(ids[idx]); err != nil {
			continue // already deleted; draw again
		}
		deleted++
	}
	if deleted == 0 {
		return nil, fmt.Errorf("bench: no deletions performed")
	}
	deleteQ := float64(inc.NeighbourQueries()-before) / float64(deleted)

	return &DBSCANCostRow{
		InsertQueries: insertQ,
		DeleteQueries: deleteQ,
		Ratio:         deleteQ / insertQ,
		FinalClusters: inc.NumClusters(),
	}, nil
}

// WriteDBSCANCost renders the ablation row.
func WriteDBSCANCost(w io.Writer, r *DBSCANCostRow) {
	fmt.Fprintln(w, "Ablation: incremental DBSCAN insertion vs deletion cost")
	fmt.Fprintf(w, "%22s %22s %8s %10s\n", "insert queries/op", "delete queries/op", "ratio", "clusters")
	fmt.Fprintf(w, "%22.2f %22.2f %8.2f %10d\n",
		r.InsertQueries, r.DeleteQueries, r.Ratio, r.FinalClusters)
}
