package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	demon "github.com/demon-mining/demon"
	"github.com/demon-mining/demon/internal/birch"
	"github.com/demon-mining/demon/internal/diskio"
	"github.com/demon-mining/demon/internal/itemset"
)

// itemsetModel is what the two frequent-itemset miners share beyond
// AddBlock, whose report types differ.
type itemsetModel interface {
	FrequentItemsets() []demon.ItemsetSupport
	Rules(minConf float64) ([]demon.Rule, error)
	Checkpoint() error
	T() demon.BlockID
}

// txMiner drives demon.ItemsetMiner (window == 0) or the GEMM window miner
// (window == w) directly: over an in-memory store for the itemset-mem and
// window-mem workloads, over the kvfile stack for itemset-kvfile.
type txMiner struct {
	sz      sizes
	minSup  float64
	window  int
	workers int
	kvDir   string // non-empty: a kvfile store per round under this directory

	rows    [][][]demon.Item
	tr      *tracer
	mem     *diskio.MemStore // the round's store when in memory
	kvRoot  string           // the round's directory when on kvfile
	backend demon.Store      // what OpenStore returned, to close
	store   demon.Store      // backend, behind the decorator when tracing
	model   itemsetModel
	add     func(rows [][]demon.Item) (blockReport, error)
	oracle  *itemset.Lattice // the from-scratch lattice verify computed
	scratch time.Duration    // and how long Apriori took to compute it
}

func (s *txMiner) prepare(seed int64) (err error) {
	s.rows, err = txBlocks(seed, s.sz.blocks, s.sz.records)
	return err
}

// kvfileFlushEvery batches kvfile's commits (two fsyncs each) to one per this
// many mutations, about one per block. The engine's default, a commit per
// mutation, makes a block 97 % flush wait, and the sandbox's flush latency
// swings 2.5× within minutes (85 to 220 µs): no bound would hold. Batched,
// what is left is the commit path's own cost, which is what ROADMAP item 2
// works on; serve-kvfile keeps the default policy, outside the gate.
const kvfileFlushEvery = 4096

func (s *txMiner) kvURL() string {
	return fmt.Sprintf("kvfile:%s?sync=%d", filepath.Join(s.kvRoot, "store.kv"), kvfileFlushEvery)
}

func (s *txMiner) open(tr *tracer) (err error) {
	s.tr = tr
	if s.kvDir == "" {
		s.mem = diskio.NewMemStore()
		s.backend = s.mem
	} else {
		if s.kvRoot, err = os.MkdirTemp(s.kvDir, "kvfile-"); err != nil {
			return err
		}
		if s.backend, err = demon.OpenStore(s.kvURL()); err != nil {
			return err
		}
	}
	s.store = tr.wrap(s.backend)
	return s.build(false)
}

// build creates the miner over s.store, or restores it from the checkpoint
// the store holds.
func (s *txMiner) build(restore bool) error {
	if s.window == 0 {
		cfg := demon.ItemsetMinerConfig{MinSupport: s.minSup, Strategy: demon.ECUT, Store: s.store,
			Workers: s.workers, AutoCheckpointEvery: checkpointEvery}
		mk := demon.NewItemsetMiner
		if restore {
			mk = demon.RestoreItemsetMiner
		}
		m, err := mk(cfg)
		if err != nil {
			return err
		}
		s.model = m
		s.add = func(rows [][]demon.Item) (blockReport, error) {
			rep, err := m.AddBlock(rows)
			if err != nil {
				return blockReport{}, err
			}
			return itemsetReport(rep, "tidlist.ingest"), nil
		}
		return nil
	}
	cfg := demon.ItemsetWindowMinerConfig{MinSupport: s.minSup, Strategy: demon.ECUT, Store: s.store,
		WindowSize: s.window, Workers: s.workers, AutoCheckpointEvery: checkpointEvery}
	mk := demon.NewItemsetWindowMiner
	if restore {
		mk = demon.RestoreItemsetWindowMiner
	}
	m, err := mk(cfg)
	if err != nil {
		return err
	}
	s.model = m
	s.add = func(rows [][]demon.Item) (blockReport, error) {
		rep, err := m.AddBlock(rows)
		if err != nil {
			return blockReport{}, err
		}
		return blockReport{
			// From outside, GEMM's span includes the w BORDERS steps it drives.
			phases: []phase{{"tidlist.ingest", rep.Ingest}, {"gemm.addblock", rep.Response + rep.Offline}},
			counts: map[string]float64{
				"gemm.response_ms":     ms(rep.Response),
				"gemm.offline_ms":      ms(rep.Offline),
				"gemm.distinct_models": float64(m.DistinctModels()),
			},
		}, nil
	}
	return nil
}

func (s *txMiner) block(i int, timed bool) (time.Duration, error) {
	t0 := time.Now()
	rep, err := s.add(s.rows[i])
	d := time.Since(t0)
	if err != nil {
		return 0, fmt.Errorf("block %d: %w", i+1, err)
	}
	s.tr.block(i+1, timed, t0, d, rep)
	return d, nil
}

func (s *txMiner) query() (time.Duration, error) { return queryItemsets(s.model) }

func queryItemsets(m itemsetModel) (time.Duration, error) {
	t0 := time.Now()
	sets := m.FrequentItemsets()
	_, err := m.Rules(ruleConfidence)
	d := time.Since(t0)
	if err == nil && len(sets) == 0 {
		err = fmt.Errorf("query returned no frequent itemsets")
	}
	return d, err
}

func (s *txMiner) checkpoint() error {
	t0 := time.Now()
	err := s.model.Checkpoint()
	s.tr.sample("demon.checkpoint_ms", ms(time.Since(t0)))
	return err
}

// close ends the round and returns what its store holds: the values of an
// in-memory store, the size of the kvfile.
func (s *txMiner) close() (int64, error) {
	if s.kvDir == "" {
		return s.mem.TotalSize(""), nil
	}
	if err := demon.CloseStore(s.backend); err != nil {
		return 0, err
	}
	info, err := os.Stat(filepath.Join(s.kvRoot, "store.kv"))
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

func (s *txMiner) restart() (time.Duration, error) {
	t0 := time.Now()
	if s.kvDir != "" {
		// Coming back includes opening the file and rebuilding its index.
		backend, err := demon.OpenStore(s.kvURL())
		if err != nil {
			return 0, err
		}
		defer demon.CloseStore(backend)
		s.store = s.tr.wrap(backend)
	}
	if err := s.build(true); err != nil {
		return 0, err
	}
	t1 := time.Now()
	if _, err := queryItemsets(s.model); err != nil {
		return 0, err
	}
	d := time.Since(t0)
	s.tr.sample("demon.restore_ms", ms(t1.Sub(t0)))
	if got := int(s.model.T()); got != s.sz.blocks {
		return 0, fmt.Errorf("restored miner is at block %d, want %d", got, s.sz.blocks)
	}
	return d, nil
}

// verify compares the maintained model with itemset.Apriori run from
// scratch over every block (the final window's blocks for the window miner).
func (s *txMiner) verify() error {
	rows := s.rows
	if s.window > 0 {
		rows = rows[len(rows)-s.window:]
	}
	t0 := time.Now()
	want, err := aprioriOver(rows, s.minSup)
	if err != nil {
		return err
	}
	s.oracle, s.scratch = want, time.Since(t0)
	return sameFrequent(s.model.FrequentItemsets(), want)
}

func (s *txMiner) discard() {
	if s.kvRoot != "" {
		os.RemoveAll(s.kvRoot)
		s.kvRoot = ""
	}
}

func (s *txMiner) layers(m map[string]float64, dir string) error {
	directLayers(s.tr, m)
	m["itemset.apriori_scratch_ms"] = ms(s.scratch)
	sample := sampleBlocks(s.rows)
	if err := itemsetProbes(m, s.oracle, sample); err != nil {
		return err
	}
	if err := tidlistProbes(m, s.oracle, sample); err != nil {
		return err
	}
	write := func(txn diskio.Store) error { return putTxBlock(txn, sample[0], true) }
	if s.kvDir == "" {
		return commitProbe(m, diskio.NewMemStore(), write)
	}
	// The rounds' files are gone: build one more, a few blocks long, for the
	// probes of the backend and the engine under it.
	var err error
	if s.kvRoot, err = os.MkdirTemp(dir, "probe-"); err != nil {
		return err
	}
	defer s.discard()
	store, err := demon.OpenStore(s.kvURL())
	if err != nil {
		return err
	}
	if err := commitProbe(m, store, write); err != nil {
		demon.CloseStore(store)
		return err
	}
	for _, blk := range sample[1:] {
		if err := putTxBlock(store, blk, true); err != nil {
			demon.CloseStore(store)
			return err
		}
	}
	return kvfileProbes(m, store, filepath.Join(s.kvRoot, "store.kv"), s.kvRoot)
}

// directLayers fills what a tracer that drove a miner directly knows: the
// per-block phase and store metrics, checkpoint and restore, and each
// layer's share of the block latency.
func directLayers(tr *tracer, m map[string]float64) {
	tr.minerMetrics(m)
	m["demon.checkpoint_ms"] = tr.mean("demon.checkpoint_ms")
	m["demon.restore_ms"] = tr.mean("demon.restore_ms")
	layers, unattributed := tr.layerSelf()
	shares(m, layers, unattributed, m["demon.addblock_ms_per_block"])
}

func aprioriOver(blocks [][][]demon.Item, minSup float64) (*itemset.Lattice, error) {
	var all [][]demon.Item
	for _, rows := range blocks {
		all = append(all, rows...)
	}
	return itemset.Apriori(itemset.SliceSource(itemset.NewTxBlock(1, 0, all).Txs), nil, minSup)
}

// sameFrequent reports a mismatch between a miner's answer and the oracle's
// frequent family, counts included.
func sameFrequent(got []demon.ItemsetSupport, want *itemset.Lattice) error {
	if len(got) != len(want.Frequent) {
		return mismatchf("%d frequent itemsets, oracle has %d", len(got), len(want.Frequent))
	}
	for _, g := range got {
		if c, ok := want.Frequent[g.Itemset.Key()]; !ok || c != g.Count {
			return mismatchf("itemset %v has count %d, oracle %d (frequent there: %v)", g.Itemset, g.Count, c, ok)
		}
	}
	return nil
}

// clusterMiner drives demon.ClusterMiner (BIRCH+) over an in-memory store:
// the cluster-mem workload.
type clusterMiner struct {
	sz sizes
	k  int

	blocks [][]demon.Point
	tr     *tracer
	mem    *diskio.MemStore
	store  demon.Store
	m      *demon.ClusterMiner
	timed  bool // the last block was a timed one, so the query after it is too
}

func (s *clusterMiner) prepare(seed int64) (err error) {
	s.blocks, err = pointBlocks(seed, s.sz.blocks, s.sz.records)
	return err
}

func (s *clusterMiner) config() demon.ClusterMinerConfig {
	return demon.ClusterMinerConfig{K: s.k, Store: s.store, Workers: 1, AutoCheckpointEvery: checkpointEvery}
}

func (s *clusterMiner) open(tr *tracer) (err error) {
	s.tr = tr
	s.mem = diskio.NewMemStore()
	s.store = tr.wrap(s.mem)
	s.m, err = demon.NewClusterMiner(s.config())
	return err
}

func (s *clusterMiner) block(i int, timed bool) (time.Duration, error) {
	t0 := time.Now()
	scan, err := s.m.AddBlock(s.blocks[i])
	d := time.Since(t0)
	if err != nil {
		return 0, fmt.Errorf("block %d: %w", i+1, err)
	}
	// The point block is encoded and staged before the scan; the store
	// operation that ends first marks where the scan began.
	ingest := s.tr.untilFirstOp(t0)
	s.tr.block(i+1, timed, t0, d, blockReport{phases: []phase{{"birch.ingest", ingest}, {"birch.addblock", scan}}})
	s.timed = timed
	return d, nil
}

func (s *clusterMiner) query() (time.Duration, error) {
	t0 := time.Now()
	cs, err := s.m.Clusters()
	d := time.Since(t0)
	if err == nil && len(cs) != s.k {
		err = fmt.Errorf("query returned %d clusters, want %d", len(cs), s.k)
	}
	if s.timed {
		s.tr.sample("birch.phase2_ms", ms(d))
	}
	return d, err
}

func (s *clusterMiner) checkpoint() error {
	t0 := time.Now()
	err := s.m.Checkpoint()
	s.tr.sample("demon.checkpoint_ms", ms(time.Since(t0)))
	return err
}

func (s *clusterMiner) close() (int64, error) { return s.mem.TotalSize(""), nil }

func (s *clusterMiner) restart() (time.Duration, error) {
	t0 := time.Now()
	m, err := demon.RestoreClusterMiner(s.config())
	if err != nil {
		return 0, err
	}
	t1 := time.Now()
	if _, err := m.Clusters(); err != nil {
		return 0, err
	}
	d := time.Since(t0)
	s.tr.sample("demon.restore_ms", ms(t1.Sub(t0)))
	if got := int(m.T()); got != s.sz.blocks {
		return 0, fmt.Errorf("restored miner is at block %d, want %d", got, s.sz.blocks)
	}
	return d, nil
}

// verify checks that every point is in exactly one cluster and that BIRCH+
// fed block by block equals birch.Run over the concatenated blocks.
func (s *clusterMiner) verify() error {
	got, err := s.m.Clusters()
	if err != nil {
		return err
	}
	want, err := birch.Run(birch.Config{Tree: demon.DefaultTreeConfig(), K: s.k, Workers: 1}, s.blocks...)
	if err != nil {
		return err
	}
	total := 0
	for i, c := range got {
		total += c.N
		w := want.Clusters[i]
		if c.N != w.CF.N || fmt.Sprint(c.Centroid) != fmt.Sprint(w.Centroid()) {
			return mismatchf("cluster %d is N=%d %v, birch.Run has N=%d %v", i, c.N, c.Centroid, w.CF.N, w.Centroid())
		}
	}
	if points := s.sz.blocks * s.sz.records; total != points {
		return mismatchf("clusters hold %d points, %d were ingested", total, points)
	}
	return nil
}

func (s *clusterMiner) discard() {}

func (s *clusterMiner) layers(m map[string]float64, _ string) error {
	directLayers(s.tr, m)
	m["birch.phase2_ms"] = s.tr.mean("birch.phase2_ms")
	if err := cfProbes(m, s.blocks); err != nil {
		return err
	}
	return commitProbe(m, diskio.NewMemStore(), func(txn diskio.Store) error {
		return birch.NewPointStore(txn).Put(&birch.PointBlock{ID: 1, Points: s.blocks[0]})
	})
}
