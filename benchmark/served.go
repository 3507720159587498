package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	demon "github.com/demon-mining/demon"
	"github.com/demon-mining/demon/internal/blockio"
	"github.com/demon-mining/demon/internal/client"
	"github.com/demon-mining/demon/internal/diskio"
	"github.com/demon-mining/demon/internal/itemset"
	"github.com/demon-mining/demon/internal/obs"
	"github.com/demon-mining/demon/internal/serve"
)

const namespace = "bench"

// served drives an in-process demon-serve over real loopback HTTP, fed by
// internal/client.Feeder one block per POST: the serve-kvfile and serve-file
// workloads. A block is handed over when Send starts and reflected by the
// model when the flush that follows it answers 200.
type served struct {
	sz   sizes
	spec serve.Spec
	dir  string // scratch directory the per-round roots are made in

	rows   [][][]demon.Item
	wire   []blockio.Block
	tr     *tracer
	root   string
	srv    *serve.Server
	ts     *httptest.Server
	feeder *client.Feeder
	stats  client.Stats     // the feeder's counters when the round was verified
	oracle *itemset.Lattice // the mem: miner's lattice verify compared with
}

func (s *served) prepare(seed int64) (err error) {
	s.rows, err = txBlocks(seed, s.sz.blocks, s.sz.records)
	if err != nil {
		return err
	}
	s.wire = make([]blockio.Block, len(s.rows))
	for i, rows := range s.rows {
		s.wire[i] = blockio.TxBlock(rows)
	}
	return nil
}

// newServer opens a server over root the way cmd/demon-serve does: on an
// enabled process-wide registry. The registry is a fresh one per server, so
// the collectors of servers already drained do not pile up.
func newServer(root string) (*serve.Server, error) {
	obs.SetDefault(obs.NewRegistry())
	return serve.New(serve.Config{Root: root})
}

func (s *served) open(tr *tracer) (err error) {
	s.tr = tr
	if s.root, err = os.MkdirTemp(s.dir, s.spec.Store+"-root-"); err != nil {
		return err
	}
	if s.srv, err = newServer(s.root); err != nil {
		return err
	}
	if _, err = s.srv.Create(s.spec); err != nil {
		return err
	}
	s.ts = httptest.NewServer(s.srv.Handler())
	s.feeder, err = client.New(client.Config{BaseURL: s.ts.URL, Namespace: namespace,
		HTTPClient: s.ts.Client(), BatchSize: 1})
	return err
}

// call issues one request against the namespace and returns the body of a
// 200 answer; any other status is an error.
func call(ts *httptest.Server, method, path string) ([]byte, error) {
	req, err := http.NewRequest(method, ts.URL+"/v1/namespaces/"+namespace+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, body)
	}
	return body, nil
}

func (s *served) block(i int, timed bool) (time.Duration, error) {
	t0 := time.Now()
	if err := s.feeder.Send(context.Background(), s.wire[i]); err != nil {
		return 0, fmt.Errorf("block %d: %w", i+1, err)
	}
	t1 := time.Now()
	if _, err := call(s.ts, http.MethodPost, "/flush"); err != nil {
		return 0, fmt.Errorf("block %d: %w", i+1, err)
	}
	t2 := time.Now()
	if timed && s.tr != nil {
		s.tr.blocks++
		root := s.tr.span(0, "bench.block", i+1, t0, t2)
		s.tr.span(root, "client.send", i+1, t0, t1)
		s.tr.span(root, "serve.flush_wait", i+1, t1, t2)
		s.tr.sample("client.send", ms(t1.Sub(t0)))
		s.tr.sample("serve.flush_wait", ms(t2.Sub(t1)))
		s.tr.sum("bench.block", ms(t2.Sub(t0)))
	}
	return t2.Sub(t0), nil
}

func queryServed(ts *httptest.Server) (time.Duration, error) {
	t0 := time.Now()
	if _, err := call(ts, http.MethodGet, "/itemsets?top=50"); err != nil {
		return 0, err
	}
	if _, err := call(ts, http.MethodGet, fmt.Sprintf("/rules?minconf=%v", ruleConfidence)); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

func (s *served) query() (time.Duration, error) { return queryServed(s.ts) }

func (s *served) checkpoint() error {
	t0 := time.Now()
	_, err := call(s.ts, http.MethodPost, "/flush?checkpoint=1")
	s.tr.sample("serve.checkpoint_ms", ms(time.Since(t0)))
	return err
}

// nsStatus is the slice of the namespace status document the checks read.
type nsStatus struct {
	T          int    `json:"t"`
	AppliedSeq int    `json:"applied_seq"`
	DurableSeq int    `json:"durable_seq"`
	Healthy    bool   `json:"healthy"`
	Error      string `json:"error"`
}

func status(ts *httptest.Server) (nsStatus, error) {
	var st nsStatus
	body, err := call(ts, http.MethodGet, "")
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(body, &st)
}

// verify checks the sequencing marks after the final checkpoint, that the
// client never had to retry, and that the served frequent itemsets equal
// those of a miner fed the same blocks over an in-memory store.
func (s *served) verify() error {
	st, err := status(s.ts)
	if err != nil {
		return err
	}
	if n := s.sz.blocks; st.T != n || st.AppliedSeq != n || st.DurableSeq != n || !st.Healthy {
		return mismatchf("after %d blocks the namespace reports t=%d applied_seq=%d durable_seq=%d healthy=%v %s",
			n, st.T, st.AppliedSeq, st.DurableSeq, st.Healthy, st.Error)
	}
	s.stats = s.feeder.Stats()
	if fs := s.stats; fs.Retries != 0 || fs.Resyncs != 0 || fs.Duplicates != 0 {
		return mismatchf("client needed %d retries, %d resyncs, %d duplicates", fs.Retries, fs.Resyncs, fs.Duplicates)
	}
	body, err := call(s.ts, http.MethodGet, "/itemsets")
	if err != nil {
		return err
	}
	var got []struct {
		Items []int32 `json:"items"`
		Count int     `json:"count"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	ref, err := demon.NewItemsetMiner(demon.ItemsetMinerConfig{MinSupport: s.spec.MinSupport, Strategy: demon.ECUT})
	if err != nil {
		return err
	}
	for _, rows := range s.rows {
		if _, err := ref.AddBlock(rows); err != nil {
			return err
		}
	}
	want := ref.Lattice()
	s.oracle = want
	if len(got) != len(want.Frequent) {
		return mismatchf("%d served itemsets, the mem: miner has %d", len(got), len(want.Frequent))
	}
	for _, g := range got {
		x := make(demon.Itemset, len(g.Items))
		for i, it := range g.Items {
			x[i] = demon.Item(it)
		}
		if c, ok := want.Frequent[x.Key()]; !ok || c != g.Count {
			return mismatchf("served itemset %v has count %d, the mem: miner %d", x, g.Count, c)
		}
	}
	return nil
}

// shutdown drains a server, reporting how long the drain took, and then
// releases its stores, which a server process leaves to its exit.
func shutdown(srv *serve.Server) (time.Duration, error) {
	t0 := time.Now()
	err := srv.Drain(context.Background())
	d := time.Since(t0)
	for _, n := range srv.Namespaces() {
		if cerr := demon.CloseStore(n.Store()); err == nil {
			err = cerr
		}
	}
	return d, err
}

// close drains the server and returns the bytes its root directory holds.
func (s *served) close() (int64, error) {
	d, err := shutdown(s.srv)
	s.tr.sample("serve.drain_ms", ms(d))
	s.ts.Close()
	if err != nil {
		return 0, err
	}
	var total int64
	err = filepath.WalkDir(s.root, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			total += info.Size()
		}
		return err
	})
	return total, err
}

// restart opens a new server on the drained root and times it up to the
// first answered query.
func (s *served) restart() (time.Duration, error) {
	t0 := time.Now()
	srv, err := newServer(s.root)
	if err != nil {
		return 0, err
	}
	t1 := time.Now()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if _, err := queryServed(ts); err != nil {
		return 0, err
	}
	d := time.Since(t0)
	s.tr.sample("serve.open_ms", ms(t1.Sub(t0)))
	st, err := status(ts)
	if err != nil {
		return 0, err
	}
	if st.T != s.sz.blocks {
		return 0, mismatchf("restarted namespace is at block %d, want %d", st.T, s.sz.blocks)
	}
	_, err = shutdown(srv)
	return d, err
}

func (s *served) discard() {
	if s.root != "" {
		os.RemoveAll(s.root)
		s.root = ""
	}
}

// layers reports the client and serve spans of the traced pass, then sizes
// what the server did out of sight with the storage probe and the kernel
// probes.
func (s *served) layers(m map[string]float64, dir string) error {
	tr := s.tr
	block := tr.sums["bench.block"] / float64(tr.blocks)
	send := tr.mean("client.send")
	m["client.send_ms_per_block"] = send
	m["client.retries"] = float64(s.stats.Retries)
	m["client.resyncs"] = float64(s.stats.Resyncs)
	m["serve.flush_wait_ms_per_block"] = tr.mean("serve.flush_wait")
	m["serve.checkpoint_ms"] = tr.mean("serve.checkpoint_ms")
	m["serve.drain_ms"] = tr.mean("serve.drain_ms")
	m["serve.open_ms"] = tr.mean("serve.open_ms")
	if err := blockioProbes(m, s.wire); err != nil {
		return err
	}

	probeDir, err := os.MkdirTemp(dir, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(probeDir)
	url, err := demon.DirStoreURL(s.spec.Store, filepath.Join(probeDir, "store"))
	if err != nil {
		return err
	}
	strategy, ecut := demon.PTScan, s.spec.Strategy == "ecut"
	if ecut {
		strategy = demon.ECUT
	}
	probe, store, err := storageProbe(url, s.spec.MinSupport, strategy, s.rows)
	if err != nil {
		return err
	}
	probe.minerMetrics(m)
	m["serve.overhead_ms_per_block"] = block - m["demon.addblock_ms_per_block"]
	sample := sampleBlocks(s.rows)
	extra := *sample[0]
	extra.ID = probeBlocks + 1 // a block the probe store does not hold yet
	err = commitProbe(m, store, func(txn diskio.Store) error { return putTxBlock(txn, &extra, ecut) })
	if err == nil && s.spec.Store == "kvfile" {
		err = kvfileProbes(m, store, filepath.Join(probeDir, "store", "store.kv"), probeDir)
	} else if cerr := demon.CloseStore(store); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := itemsetProbes(m, s.oracle, sample); err != nil {
		return err
	}
	if ecut {
		if err := tidlistProbes(m, s.oracle, sample); err != nil {
			return err
		}
	}

	// Shares of the served block latency: the probe's layers as measured
	// below a direct miner, the wire codec from its probe, the client's send
	// without the codec, and serve as what is left of the latency.
	layers, _ := probe.layerSelf()
	codec := m["blockio.encode_ms_per_block"] + m["blockio.decode_ms_per_block"]
	layers["blockio"] = codec
	layers["client"] = max(0, send-codec)
	_, unattributed := tr.layerSelf()
	rest := block - unattributed
	for _, v := range layers {
		rest -= v
	}
	layers["serve"] = rest
	shares(m, layers, unattributed, block)
	return nil
}
