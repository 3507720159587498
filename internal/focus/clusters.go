package focus

import (
	"fmt"

	"github.com/demon-mining/demon/internal/birch"
	"github.com/demon-mining/demon/internal/cf"
	"github.com/demon-mining/demon/internal/obs"
	"github.com/demon-mining/demon/internal/par"
)

// ClusterDiffer instantiates FOCUS with cluster models: the structural
// component of a block's model is its set of cluster regions (centroids),
// the greatest common refinement of two models is the partition induced by
// the union of both centroid sets (each point belongs to the region of its
// nearest centroid), and the measure of a region is the fraction of the
// block's points falling in it. Because the induced regions are disjoint,
// the significance is an exact two-sample chi-square homogeneity test.
type ClusterDiffer struct {
	// K is the number of clusters mined from each block.
	K int
	// Tree is the CF-tree configuration of the per-block BIRCH runs; the
	// zero value selects cf.DefaultTreeConfig.
	Tree cf.TreeConfig
	// Workers shards the deviation computation — the two per-block BIRCH
	// runs go concurrently and the region histograms shard over points —
	// across worker goroutines: non-positive selects GOMAXPROCS, 1 keeps the
	// computation serial. Results are identical for every worker count.
	Workers int
}

func (d ClusterDiffer) treeConfig() cf.TreeConfig {
	if d.Tree == (cf.TreeConfig{}) {
		return cf.DefaultTreeConfig()
	}
	return d.Tree
}

// Deviation implements Differ[*birch.PointBlock].
func (d ClusterDiffer) Deviation(a, b *birch.PointBlock) (Deviation, error) {
	span := obs.Default().Timer("focus.deviation.ns").Start()
	defer span.End()
	if d.K < 1 {
		return Deviation{}, fmt.Errorf("focus: cluster differ K = %d < 1", d.K)
	}
	if len(a.Points) == 0 || len(b.Points) == 0 {
		return Deviation{}, fmt.Errorf("focus: cannot compare empty blocks (%d, %d points)", len(a.Points), len(b.Points))
	}
	cfg := birch.Config{Tree: d.treeConfig(), K: d.K}
	blks := [2]*birch.PointBlock{a, b}
	var models [2]*birch.Model
	var errs [2]error
	par.Do(2, d.Workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			models[i], errs[i] = birch.Run(cfg, blks[i].Points)
		}
	})
	if err := par.FirstError(errs[:]); err != nil {
		return Deviation{}, err
	}
	ma, mb := models[0], models[1]

	// The GCR: the union of both models' centroids.
	var regions []cf.Point
	for _, c := range ma.Clusters {
		regions = append(regions, c.Centroid())
	}
	for _, c := range mb.Clusters {
		regions = append(regions, c.Centroid())
	}
	if len(regions) == 0 {
		return Deviation{Score: 0, PValue: 1, Regions: 0}, nil
	}

	ha := histogram(a.Points, regions, d.Workers)
	hb := histogram(b.Points, regions, d.Workers)

	// Total variation distance between the two region measures.
	var score float64
	for i := range regions {
		pa := float64(ha[i]) / float64(len(a.Points))
		pb := float64(hb[i]) / float64(len(b.Points))
		if pa > pb {
			score += pa - pb
		} else {
			score += pb - pa
		}
	}
	score /= 2

	stat, df, err := TwoSampleChiSquare(ha, hb)
	if err != nil {
		return Deviation{}, err
	}
	p, err := ChiSquareSurvival(stat, df)
	if err != nil {
		return Deviation{}, err
	}
	obs.Default().Histogram("focus.deviation.regions").Observe(int64(len(regions)))
	return Deviation{Score: score, PValue: p, Regions: len(regions)}, nil
}

// histogram assigns each point to its nearest region and counts per region,
// sharding the points across the given workers; the per-shard histograms
// merge additively in shard order, so the counts equal a serial pass.
func histogram(pts []cf.Point, regions []cf.Point, workers int) []int {
	count := func(pts []cf.Point) []int {
		h := make([]int, len(regions))
		for _, p := range pts {
			best, bestD := 0, cf.Distance(p, regions[0])
			for i := 1; i < len(regions); i++ {
				if d := cf.Distance(p, regions[i]); d < bestD {
					best, bestD = i, d
				}
			}
			h[best]++
		}
		return h
	}
	shards := par.Shards(len(pts), workers)
	if shards <= 1 {
		return count(pts)
	}
	part := make([][]int, shards)
	par.Do(len(pts), workers, func(s, lo, hi int) {
		part[s] = count(pts[lo:hi])
	})
	h := part[0]
	for _, p := range part[1:] {
		for i, c := range p {
			h[i] += c
		}
	}
	return h
}
