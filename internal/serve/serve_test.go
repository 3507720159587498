package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	demon "github.com/demon-mining/demon"
	"github.com/demon-mining/demon/internal/blockio"
	"github.com/demon-mining/demon/internal/itemset"
)

func mustServer(t *testing.T, root string) *Server {
	t.Helper()
	s, err := New(Config{Root: root})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// txRows builds a deterministic transaction block: half the rows carry
// {1,2}, the rest singletons, so {1,2} is always frequent at κ=0.2.
func txRows(n, salt int) [][]itemset.Item {
	rows := make([][]itemset.Item, n)
	for i := range rows {
		if i%2 == 0 {
			rows[i] = []itemset.Item{1, 2}
		} else {
			rows[i] = []itemset.Item{itemset.Item(3 + (i+salt)%5)}
		}
	}
	return rows
}

func postBlocks(t *testing.T, ts *httptest.Server, ns string, blocks ...blockio.Block) ingestResult {
	t.Helper()
	var body strings.Builder
	enc := blockio.NewEncoder(&body)
	for _, b := range blocks {
		if err := enc.Encode(b); err != nil {
			t.Fatalf("encode: %v", err)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/namespaces/"+ns+"/blocks", "application/x-ndjson", strings.NewReader(body.String()))
	if err != nil {
		t.Fatalf("POST blocks: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST blocks: status %d", resp.StatusCode)
	}
	var res ingestResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatalf("decode ingest result: %v", err)
	}
	return res
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestCreateIngestQueryResume(t *testing.T) {
	root := t.TempDir()
	s := mustServer(t, root)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Create over the API.
	spec := `{"name":"retail","kind":"itemset","min_support":0.2,"strategy":"ecut"}`
	resp, err := http.Post(ts.URL+"/v1/namespaces", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d", resp.StatusCode)
	}
	// Duplicate names are rejected.
	resp, err = http.Post(ts.URL+"/v1/namespaces", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("create dup: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("duplicate create: status %d, want 400", resp.StatusCode)
	}

	// Ingest three blocks and flush so queries see them.
	res := postBlocks(t, ts, "retail",
		blockio.TxBlock(txRows(40, 0)), blockio.TxBlock(txRows(40, 1)), blockio.TxBlock(txRows(40, 2)))
	if res.Accepted != 3 {
		t.Fatalf("accepted %d blocks, want 3", res.Accepted)
	}
	resp, err = http.Post(ts.URL+"/v1/namespaces/retail/flush?checkpoint=1", "", nil)
	if err != nil {
		t.Fatalf("flush: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flush: status %d", resp.StatusCode)
	}

	var sets []itemsetJSON
	if code := getJSON(t, ts.URL+"/v1/namespaces/retail/itemsets?top=5", &sets); code != 200 {
		t.Fatalf("itemsets: status %d", code)
	}
	found := false
	for _, x := range sets {
		if len(x.Items) == 2 && x.Items[0] == 1 && x.Items[1] == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("itemsets response misses {1,2}: %+v", sets)
	}
	var border []itemsetJSON
	if code := getJSON(t, ts.URL+"/v1/namespaces/retail/border", &border); code != 200 {
		t.Fatalf("border: status %d", code)
	}
	// A confidence outside (0, 1] is the client's error, NaN included.
	for _, c := range []struct {
		minconf string
		want    int
	}{{"0.5", 200}, {"2", 400}, {"-1", 400}, {"NaN", 400}} {
		var rules []ruleJSON
		if code := getJSON(t, ts.URL+"/v1/namespaces/retail/rules?minconf="+c.minconf, &rules); code != c.want {
			t.Errorf("rules?minconf=%s: status %d, want %d", c.minconf, code, c.want)
		}
	}
	var status nsStatus
	if code := getJSON(t, ts.URL+"/v1/namespaces/retail", &status); code != 200 {
		t.Fatalf("status: status %d", code)
	}
	if status.T != 3 || status.Applied != 3 || !status.Healthy {
		t.Fatalf("status = %+v, want T=3 applied=3 healthy", status)
	}

	// Wrong-kind payload is a 400, not a poisoned namespace.
	var body strings.Builder
	_ = blockio.NewEncoder(&body).Encode(blockio.PointBlock([]demon.Point{{1, 2}}))
	resp, err = http.Post(ts.URL+"/v1/namespaces/retail/blocks", "application/x-ndjson", strings.NewReader(body.String()))
	if err != nil {
		t.Fatalf("wrong kind: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("wrong kind: status %d, want 400", resp.StatusCode)
	}

	// Drain and reopen: the namespace resumes at block 3 with the model.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	ts.Close()

	s2 := mustServer(t, root)
	n, ok := s2.Namespace("retail")
	if !ok {
		t.Fatalf("resumed server lost the namespace")
	}
	if n.T() != 3 {
		t.Fatalf("resumed at block %d, want 3", n.T())
	}
	sets2 := n.m().miner.(itemsetQueries).FrequentItemsets()
	if len(sets2) == 0 {
		t.Fatalf("resumed model is empty")
	}
	if err := s2.Drain(context.Background()); err != nil {
		t.Fatalf("drain resumed server: %v", err)
	}
}

func TestBackpressure(t *testing.T) {
	// A hand-built namespace with no running worker keeps the queue state
	// deterministic: capacity 2, nothing dequeues.
	n := &Namespace{
		spec:  Spec{Name: "bp", Kind: KindItemset, MinSupport: 0.1},
		queue: make(chan queued, 2),
		done:  make(chan struct{}),
	}
	b := blockio.TxBlock(txRows(4, 0))
	if err := n.Enqueue(b); err != nil {
		t.Fatalf("enqueue 1: %v", err)
	}
	if err := n.Enqueue(b); err != nil {
		t.Fatalf("enqueue 2: %v", err)
	}
	if err := n.Enqueue(b); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("enqueue 3 = %v, want ErrQueueFull", err)
	}
	if got := n.rejected.Load(); got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}

	// The HTTP layer maps it to 429 with Retry-After and the accepted count.
	s := mustServer(t, t.TempDir())
	s.ns["bp"] = n
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var body strings.Builder
	enc := blockio.NewEncoder(&body)
	_ = enc.Encode(b)
	resp, err := http.Post(ts.URL+"/v1/namespaces/bp/blocks", "application/x-ndjson", strings.NewReader(body.String()))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("429 without Retry-After")
	}
	var res ingestResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if res.Accepted != 0 || res.Enqueued != 2 {
		t.Fatalf("result = %+v, want accepted 0, enqueued 2", res)
	}
}

func TestDrainAppliesQueuedBlocks(t *testing.T) {
	root := t.TempDir()
	s := mustServer(t, root)
	if _, err := s.Create(Spec{Name: "drainy", Kind: KindItemset, MinSupport: 0.2}); err != nil {
		t.Fatalf("create: %v", err)
	}
	n, _ := s.Namespace("drainy")
	const blocks = 10
	for i := 0; i < blocks; i++ {
		if err := n.Enqueue(blockio.TxBlock(txRows(20, i))); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if n.T() != blocks {
		t.Fatalf("drained at block %d, want %d — drain lost queued blocks", n.T(), blocks)
	}
	// Intake after drain is rejected.
	if err := n.Enqueue(blockio.TxBlock(txRows(2, 0))); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain enqueue = %v, want ErrDraining", err)
	}
	// Drain checkpointed: a fresh server resumes at the same position.
	s2 := mustServer(t, root)
	n2, ok := s2.Namespace("drainy")
	if !ok || n2.T() != blocks {
		t.Fatalf("resume after drain: ok=%v T=%d, want %d", ok, n2.T(), blocks)
	}
	_ = s2.Drain(context.Background())
}

func TestMonitorNamespaceReplay(t *testing.T) {
	root := t.TempDir()
	s := mustServer(t, root)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := Spec{Name: "mon", Kind: KindMonitor, MinSupport: 0.2, Alpha: 0.01}
	if _, err := s.Create(spec); err != nil {
		t.Fatalf("create: %v", err)
	}
	// Two similar blocks and one wildly different one.
	similar := blockio.TxBlock(txRows(60, 0))
	different := blockio.TxBlock(func() [][]itemset.Item {
		rows := make([][]itemset.Item, 60)
		for i := range rows {
			rows[i] = []itemset.Item{100, 101, itemset.Item(102 + i%3)}
		}
		return rows
	}())
	postBlocks(t, ts, "mon", similar, similar, different)
	resp, err := http.Post(ts.URL+"/v1/namespaces/mon/flush", "", nil)
	if err != nil {
		t.Fatalf("flush: %v", err)
	}
	resp.Body.Close()

	type report struct {
		T        demon.BlockID     `json:"t"`
		Patterns [][]demon.BlockID `json:"patterns"`
		PValue   *float64          `json:"p_value"`
		Similar  *bool             `json:"similar"`
	}
	var rep report
	if code := getJSON(t, ts.URL+"/v1/namespaces/mon/patterns?a=1&b=2", &rep); code != 200 {
		t.Fatalf("patterns: status %d", code)
	}
	if rep.T != 3 {
		t.Fatalf("monitor at block %d, want 3", rep.T)
	}
	if rep.Similar == nil || !*rep.Similar {
		t.Fatalf("blocks 1 and 2 not similar: %+v", rep)
	}

	// Restart: the detector replays the stored history and reports the same
	// patterns and cached deviations.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	s2 := mustServer(t, root)
	n, ok := s2.Namespace("mon")
	if !ok {
		t.Fatalf("monitor namespace not resumed")
	}
	if n.T() != 3 {
		t.Fatalf("monitor resumed at %d, want 3", n.T())
	}
	score, pv, ok := n.m().miner.(*demon.Monitor).Similarity(1, 2)
	if !ok || pv < spec.Alpha {
		t.Fatalf("replayed similarity(1,2) = (%v, %v, %v), want similar", score, pv, ok)
	}
	if fmt.Sprint(n.m().miner.(*demon.Monitor).Patterns()) != fmt.Sprint(rep.Patterns) {
		t.Fatalf("replayed patterns %v != served %v", n.m().miner.(*demon.Monitor).Patterns(), rep.Patterns)
	}
	_ = s2.Drain(context.Background())
}

// TestMonitorRefusesEmptyBlock: blockio admits {"txs":[]} — quiet periods
// exist — but the FOCUS deviation is undefined against an empty block. It
// used to be accepted, fail the worker and poison the namespace (for good
// when it was the first block: stored, then every later block failed, reopen
// included) while a sequenced client re-sent it forever; now admission
// refuses it with a 400 and the namespace carries on.
func TestMonitorRefusesEmptyBlock(t *testing.T) {
	s := mustServer(t, t.TempDir())
	n, err := s.Create(Spec{Name: "mon", Kind: KindMonitor, MinSupport: 0.2, Alpha: 0.01})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	ctx := context.Background()
	stream := []blockio.Block{blockio.TxBlock(txRows(20, 0)), blockio.TxBlock(nil), blockio.TxBlock(txRows(20, 1))}
	for i, b := range stream {
		err := n.EnqueueCtx(ctx, b)
		if empty := len(b.Txs) == 0; empty != errors.Is(err, ErrEmptyBlock) || (!empty && err != nil) {
			t.Fatalf("block %d (%d transactions): EnqueueCtx = %v", i, len(b.Txs), err)
		}
	}
	if err := n.Flush(ctx, false); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if n.Err() != nil || n.reopens.Load() != 0 || n.T() != 2 {
		t.Fatalf("after [b1, empty, b2]: Err = %v, reopens = %d, T = %d; want nil, 0, 2", n.Err(), n.reopens.Load(), n.T())
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/namespaces/mon/blocks", "application/x-ndjson", strings.NewReader(`{"seq":1,"txs":[]}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty block over HTTP: status %d, want 400", resp.StatusCode)
	}
	_ = s.Drain(ctx)
}

// TestSpecWorkersDefaultsToSerial: the persisted-spec contract is "omitted =
// serial", and the miner configurations read zero as GOMAXPROCS, so the spec
// resolves the knob before it reaches them.
func TestSpecWorkersDefaultsToSerial(t *testing.T) {
	for workers, want := range map[int]int{0: 1, 1: 1, 3: 3} {
		if got := (Spec{Workers: workers}).workers(); got != want {
			t.Errorf("Spec{Workers: %d} resolves to %d workers, want %d", workers, got, want)
		}
	}
}

func TestHealthAndVersionEndpoints(t *testing.T) {
	s := mustServer(t, t.TempDir())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code := getJSON(t, ts.URL+"/healthz", nil); code != 200 {
		t.Fatalf("healthz: %d", code)
	}
	var v struct {
		Module string `json:"module"`
	}
	if code := getJSON(t, ts.URL+"/versionz", &v); code != 200 || v.Module == "" {
		t.Fatalf("versionz: code %d, module %q", code, v.Module)
	}
	var nss []nsStatus
	if code := getJSON(t, ts.URL+"/namespacesz", &nss); code != 200 {
		t.Fatalf("namespacesz: %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/namespaces/ghost/itemsets", nil); code != 404 {
		t.Fatalf("unknown namespace: %d, want 404", code)
	}

	// Draining flips healthz to 503.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", code)
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{Name: "", Kind: KindItemset, MinSupport: 0.1},
		{Name: "UPPER", Kind: KindItemset, MinSupport: 0.1},
		{Name: "../escape", Kind: KindItemset, MinSupport: 0.1},
		{Name: "x", Kind: "nope", MinSupport: 0.1},
		{Name: "x", Kind: KindItemset, MinSupport: 0},
		{Name: "x", Kind: KindItemset, MinSupport: 0.1, Strategy: "quantum"},
		{Name: "x", Kind: KindWindow, MinSupport: 0.1},
		{Name: "x", Kind: KindItemset, MinSupport: 0.1, WindowSize: 3},
		{Name: "x", Kind: KindCluster},
		{Name: "x", Kind: KindMonitor, MinSupport: 0.1},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d (%+v): validated", i, s)
		}
	}
	good := []Spec{
		{Name: "a-1_b.c", Kind: KindItemset, MinSupport: 0.1, Strategy: "ecutplus", Every: 2, Offset: 1},
		{Name: "w", Kind: KindWindow, MinSupport: 0.1, WindowRelBSS: "101"},
		{Name: "c", Kind: KindCluster, K: 3},
		{Name: "m", Kind: KindMonitor, MinSupport: 0.1, Alpha: 0.05},
	}
	for i, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("case %d: %v", i, err)
		}
	}
}

// TestRetiredStrategyInNamespaceFile: a namespace.json written when the
// hash-tree scan still existed fails to load with an error that names the
// strategies there are, instead of silently running another one.
func TestRetiredStrategyInNamespaceFile(t *testing.T) {
	dir := t.TempDir()
	spec := `{"name":"old","kind":"itemset","min_support":0.1,"strategy":"hashtree"}`
	if err := os.WriteFile(filepath.Join(dir, specFile), []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := readSpec(dir)
	if err == nil || !strings.Contains(err.Error(), `"hashtree" (want ptscan, ecut or ecutplus)`) {
		t.Fatalf("readSpec = %v, want an error listing the strategies", err)
	}
}
