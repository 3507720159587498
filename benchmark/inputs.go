package main

import (
	"math/rand"

	demon "github.com/demon-mining/demon"
	"github.com/demon-mining/demon/internal/pointgen"
	"github.com/demon-mining/demon/internal/quest"
)

// The dataset specs are the ones internal/perf pins: the paper's T10-style
// Quest stream and AGGR98-style Gaussian clusters, the latter with the 2 %
// uniform noise of the paper's Figure 8 so that the CF-tree keeps its
// sub-clusters and phase 2 has work to do.
const (
	questSpec  = "1M.10L.1I.2pats.4plen"
	pointSpec  = "1M.3c.4d"
	pointNoise = 0.02

	// shapeSeed pins the streams themselves. What the run's -seed decides is
	// how a pinned stream is presented: which label every item carries and
	// the order of the transactions inside each block; which axis every
	// coordinate lies on and which way it runs. Every seed is a different
	// input of exactly the same difficulty: the same sets are frequent in
	// the same blocks under other names, the same points are close. Drawing
	// the streams from -seed as well was tried first: it moves the negative
	// border by ±6 %, the block latency by ±12 % and BIRCH's phase 2 by
	// 2,000× (whether the tree has collapsed to K sub-clusters by the end of
	// a round depends on the order of the points), which puts input variance,
	// not the system's, inside every bound.
	shapeSeed = 1
)

// txBlocks cuts the pinned Quest stream into blocks of per transactions,
// relabels the items and reorders each block's transactions as the seed
// decides.
func txBlocks(seed int64, blocks, per int) ([][][]demon.Item, error) {
	cfg, err := quest.ParseSpec(questSpec)
	if err != nil {
		return nil, err
	}
	cfg.Seed = shapeSeed
	gen, err := quest.New(cfg)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	label := rng.Perm(cfg.NumItems)
	out := make([][][]demon.Item, blocks)
	for b := range out {
		txs := gen.Block(1, per).Txs
		rng.Shuffle(len(txs), func(i, j int) { txs[i], txs[j] = txs[j], txs[i] })
		rows := make([][]demon.Item, per)
		for i, tx := range txs {
			for j, it := range tx.Items {
				tx.Items[j] = demon.Item(label[it])
			}
			rows[i] = tx.Items
		}
		out[b] = rows
	}
	return out, nil
}

// pointBlocks cuts the pinned point stream into blocks of per points and
// permutes and mirrors the axes as the seed decides. The order of the points
// stays: BIRCH's tree depends on it.
func pointBlocks(seed int64, blocks, per int) ([][]demon.Point, error) {
	cfg, err := pointgen.ParseSpec(pointSpec)
	if err != nil {
		return nil, err
	}
	cfg.Seed, cfg.Noise, cfg.Extent = shapeSeed, pointNoise, 100
	gen, err := pointgen.New(cfg)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	axis := rng.Perm(cfg.Dim)
	mirror := make([]bool, cfg.Dim)
	for d := range mirror {
		mirror[d] = rng.Intn(2) == 1
	}
	out := make([][]demon.Point, blocks)
	for b := range out {
		pts := gen.Block(1, per).Points
		for i, p := range pts {
			q := make(demon.Point, len(p))
			for d, x := range p {
				if mirror[d] {
					x = cfg.Extent - x
				}
				q[axis[d]] = x
			}
			pts[i] = q
		}
		out[b] = pts
	}
	return out, nil
}
