package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	demon "github.com/demon-mining/demon"
	"github.com/demon-mining/demon/internal/blockio"
	"github.com/demon-mining/demon/internal/blockseq"
	"github.com/demon-mining/demon/internal/cf"
	"github.com/demon-mining/demon/internal/diskio"
	"github.com/demon-mining/demon/internal/diskio/kvfile"
	"github.com/demon-mining/demon/internal/itemset"
	"github.com/demon-mining/demon/internal/serve"
	"github.com/demon-mining/demon/internal/tidlist"
)

// Kernel probes call layer functions directly on data taken from the run:
// the final lattice, the first probeBlocks blocks, a store of the workload's
// backend. They run once after the traced pass, outside every timed metric.
const (
	probeBlocks     = 10
	probeCandidates = 2000 // negative-border sets the counting probes count
)

// timeIt runs fn three times and returns the median duration.
func timeIt(fn func()) time.Duration {
	ds := make([]time.Duration, 3)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = time.Since(t0)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[1]
}

// sampleBlocks turns the first probeBlocks blocks of the run into TxBlocks.
func sampleBlocks(rows [][][]demon.Item) []*itemset.TxBlock {
	rows = rows[:min(probeBlocks, len(rows))]
	out := make([]*itemset.TxBlock, len(rows))
	tid := 0
	for i, r := range rows {
		out[i] = itemset.NewTxBlock(blockseq.ID(i+1), tid, r)
		tid += len(r)
	}
	return out
}

// itemsetProbes times the itemset kernels on the final lattice l: candidate
// generation over the frequent family the way the BORDERS update phase does
// it, the prefix-tree scan of the detection phase, and the codecs.
func itemsetProbes(m map[string]float64, l *itemset.Lattice, sample []*itemset.TxBlock) error {
	bySize := make(map[int][]itemset.Itemset)
	frequent := make(map[itemset.Key]bool, len(l.Frequent))
	for k := range l.Frequent {
		x := k.Itemset()
		bySize[len(x)] = append(bySize[len(x)], x)
		frequent[k] = true
	}
	var joined [][]itemset.Itemset
	m["itemset.prefixjoin_ms"] = ms(timeIt(func() {
		joined = joined[:0]
		for _, sets := range bySize {
			joined = append(joined, itemset.PrefixJoin(sets))
		}
	}))
	generated := 0
	m["itemset.prune_ms"] = ms(timeIt(func() {
		generated = 0
		for _, cands := range joined {
			// PruneByFrequent filters in place; the joined sets stay intact
			// for the next repetition.
			generated += len(itemset.PruneByFrequent(append([]itemset.Itemset(nil), cands...), frequent))
		}
	}))
	m["itemset.candidates_generated"] = float64(generated)

	tracked := append(l.FrequentSets(), l.BorderSets()...)
	var scan time.Duration
	txs := 0
	for _, blk := range sample {
		t0 := time.Now()
		tree := itemset.NewPrefixTree(tracked)
		for _, tx := range blk.Txs {
			tree.CountTx(tx)
		}
		scan += time.Since(t0)
		txs += len(blk.Txs)
	}
	m["itemset.ptcount_us_per_tx"] = us(scan) / float64(txs)

	var enc []byte
	m["itemset.lattice_encode_ms"] = ms(timeIt(func() { enc = l.Encode() }))
	m["itemset.lattice_bytes"] = float64(len(enc))
	var derr error
	m["itemset.lattice_decode_ms"] = ms(timeIt(func() { _, _, derr = itemset.DecodeLattice(enc) }))
	if derr != nil {
		return derr
	}
	var codec time.Duration
	for _, blk := range sample {
		t0 := time.Now()
		if _, err := itemset.DecodeTxBlock(blk.Encode()); err != nil {
			return err
		}
		codec += time.Since(t0)
	}
	m["itemset.txblock_codec_ms_per_block"] = ms(codec) / float64(len(sample))
	return nil
}

// tidlistProbes materializes the sample blocks into an in-memory store and
// counts negative-border sets of l over them with both TID-list strategies.
func tidlistProbes(m map[string]float64, l *itemset.Lattice, sample []*itemset.TxBlock) error {
	mem := diskio.NewMemStore()
	ts := tidlist.NewStore(mem)
	ts.SetWorkers(1)
	ids := make([]blockseq.ID, len(sample))
	t0 := time.Now()
	for i, blk := range sample {
		ids[i] = blk.ID
		if err := ts.Materialize(blk); err != nil {
			return err
		}
	}
	m["tidlist.materialize_ms_per_block"] = ms(time.Since(t0)) / float64(len(sample))
	keys, err := mem.Keys("tid/")
	if err != nil {
		return err
	}
	m["tidlist.keys_per_block"] = float64(len(keys)) / float64(len(sample))

	var cands, pairs []itemset.Itemset
	for _, x := range l.BorderSets() {
		if len(x) >= 2 && len(cands) < probeCandidates {
			cands = append(cands, x)
		}
	}
	for _, x := range l.FrequentSets() {
		if len(x) == 2 {
			pairs = append(pairs, x)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	ts.ResetEntriesRead()
	t0 = time.Now()
	if _, err := ts.CountECUT(cands, ids); err != nil {
		return err
	}
	m["tidlist.count_ecut_us_per_candidate"] = us(time.Since(t0)) / float64(len(cands))
	m["tidlist.entries_read_per_candidate"] = float64(ts.EntriesRead()) / float64(len(cands))

	for _, blk := range sample {
		if _, _, err := ts.MaterializePairs(blk, pairs, -1); err != nil {
			return err
		}
	}
	t0 = time.Now()
	if _, err := ts.CountECUTPlus(cands, ids); err != nil {
		return err
	}
	m["tidlist.count_ecutplus_us_per_candidate"] = us(time.Since(t0)) / float64(len(cands))

	// Intersect the two longest item lists of the first sample block.
	var a, b tidlist.List
	for _, k := range keys {
		var id, it int
		if _, err := fmt.Sscanf(k, "tid/%d/i%d", &id, &it); err != nil || blockseq.ID(id) != ids[0] {
			continue
		}
		list, err := ts.ItemList(ids[0], itemset.Item(it))
		if err != nil {
			return err
		}
		switch {
		case len(list) > len(a):
			a, b = list, a
		case len(list) > len(b):
			b = list
		}
	}
	if entries := len(a) + len(b); entries > 0 {
		const reps = 1000
		d := timeIt(func() {
			for i := 0; i < reps; i++ {
				tidlist.Intersect(a, b)
			}
		})
		m["tidlist.intersect_ns_per_entry"] = float64(d) / float64(reps*entries)
	}
	return nil
}

// putTxBlock writes what ingesting blk writes: the block and, for the
// TID-list strategies, one list per item.
func putTxBlock(store diskio.Store, blk *itemset.TxBlock, lists bool) error {
	if err := itemset.NewBlockStore(store).Put(blk); err != nil || !lists {
		return err
	}
	ts := tidlist.NewStore(store)
	ts.SetWorkers(1)
	return ts.Materialize(blk)
}

// commitProbe times one transaction on store that carries the key set of a
// block and nothing else: Begin, the writes, Commit. No mining runs, so it
// isolates what the commit path costs on the backend.
func commitProbe(m map[string]float64, store demon.Store, write func(txn diskio.Store) error) error {
	txn := diskio.NewTxnStore(store)
	t0 := time.Now()
	txn.Begin()
	if err := write(txn); err != nil {
		txn.Rollback()
		return err
	}
	if err := txn.Commit(); err != nil {
		return err
	}
	m["diskio.txn_commit_probe_ms"] = ms(time.Since(t0))
	return nil
}

// cfProbes builds a CF-tree over the run's blocks directly and times the
// inserts and the tree codec.
func cfProbes(m map[string]float64, blocks [][]demon.Point) error {
	tree, err := cf.NewTree(demon.DefaultTreeConfig())
	if err != nil {
		return err
	}
	points := 0
	t0 := time.Now()
	for _, blk := range blocks {
		for _, p := range blk {
			if err := tree.Insert(p); err != nil {
				return err
			}
		}
		points += len(blk)
	}
	m["cf.insert_us_per_point"] = us(time.Since(t0)) / float64(points)
	m["cf.subclusters"] = float64(tree.NumSubClusters())
	var enc []byte
	m["cf.tree_encode_ms"] = ms(timeIt(func() { enc = tree.Encode() }))
	m["cf.tree_bytes"] = float64(len(enc))
	return nil
}

// blockioProbes encodes the sample blocks to NDJSON and decodes them back
// the way the ingest handler does.
func blockioProbes(m map[string]float64, wire []blockio.Block) error {
	wire = wire[:min(probeBlocks, len(wire))]
	var buf bytes.Buffer
	enc := blockio.NewEncoder(&buf)
	t0 := time.Now()
	for _, b := range wire {
		if err := enc.Encode(b); err != nil {
			return err
		}
	}
	n := float64(len(wire))
	m["blockio.encode_ms_per_block"] = ms(time.Since(t0)) / n
	m["blockio.wire_bytes_per_block"] = float64(buf.Len()) / n
	dec := blockio.NewLineDecoder(&buf, serve.DefaultMaxLineBytes)
	t0 = time.Now()
	for {
		if _, err := dec.Next(); err == io.EOF {
			break
		} else if err != nil {
			return err
		}
	}
	m["blockio.decode_ms_per_block"] = ms(time.Since(t0)) / n
	return nil
}

// storageProbe stands in for the store decorator that serve cannot be
// handed: it replays the first probeBlocks blocks through a direct
// ItemsetMiner over demon.OpenStore of the workload's backend, wrapped in
// the decorator. It returns the probe's tracer and the opened store, which
// the caller closes.
func storageProbe(url string, minSup float64, strategy demon.CountingStrategy, rows [][][]demon.Item) (*tracer, demon.Store, error) {
	inner, err := demon.OpenStore(url)
	if err != nil {
		return nil, nil, err
	}
	tr := newTracer()
	miner, err := demon.NewItemsetMiner(demon.ItemsetMinerConfig{MinSupport: minSup, Strategy: strategy,
		Store: tr.wrap(inner), Workers: 1, AutoCheckpointEvery: checkpointEvery})
	if err != nil {
		demon.CloseStore(inner)
		return nil, nil, err
	}
	ingest := "tidlist.ingest"
	if strategy == demon.PTScan {
		ingest = "itemset.ingest" // no TID-lists: ingest is the block codec alone
	}
	for i, r := range rows[:min(probeBlocks, len(rows))] {
		t0 := time.Now()
		rep, err := miner.AddBlock(r)
		d := time.Since(t0)
		if err != nil {
			demon.CloseStore(inner)
			return nil, nil, err
		}
		// The first two blocks build the lattice from nothing.
		tr.block(i+1, i >= 2, t0, d, itemsetReport(rep, ingest))
	}
	return tr, inner, nil
}

// kvfileProbes reads the engine under the probe store (log size, space
// amplification, compaction, reopen) and times raw puts on a fresh file.
func kvfileProbes(m map[string]float64, store demon.Store, path, dir string) error {
	var kv *kvfile.Store
	for s := store; s != nil && kv == nil; {
		if k, ok := s.(*kvfile.Store); ok {
			kv = k
		} else if u, ok := s.(diskio.Unwrapper); ok {
			s = u.Unwrap()
		} else {
			break
		}
	}
	if kv == nil {
		return fmt.Errorf("no kvfile engine under %T", store)
	}
	keys, err := kv.Keys("")
	if err != nil {
		return err
	}
	var live int64
	for _, k := range keys {
		n, err := kv.Size(k)
		if err != nil {
			return err
		}
		live += n + int64(len(k))
	}
	m["kvfile.log_bytes"] = float64(kv.LogBytes())
	if live > 0 {
		m["kvfile.space_amp"] = float64(kv.LogBytes()) / float64(live)
	}
	t0 := time.Now()
	if err := kv.Compact(); err != nil {
		return err
	}
	m["kvfile.compact_ms"] = ms(time.Since(t0))
	if err := kv.Close(); err != nil {
		return err
	}
	t0 = time.Now()
	reopened, err := kvfile.Open(path, kvfile.Options{})
	if err != nil {
		return err
	}
	m["kvfile.open_ms"] = ms(time.Since(t0))
	if err := reopened.Close(); err != nil {
		return err
	}

	raw, err := kvfile.Open(filepath.Join(dir, "probe-raw.kv"), kvfile.Options{})
	if err != nil {
		return err
	}
	defer os.Remove(filepath.Join(dir, "probe-raw.kv"))
	const puts = 200
	val := make([]byte, 64)
	t0 = time.Now()
	for i := 0; i < puts; i++ {
		if err := raw.Put(fmt.Sprintf("tid/%08d/i%d", 1, i), val); err != nil {
			raw.Close()
			return err
		}
	}
	m["kvfile.put_us"] = us(time.Since(t0)) / puts
	return raw.Close()
}
