package serve

// ISSUE 7 acceptance: one block ingested over HTTP with a client-supplied
// X-Demon-Trace-Id must yield a /tracez trace whose spans cover the whole
// path — HTTP handler, queue wait, miner AddBlock, and the diskio transaction
// commit — all under the client's trace ID. Block application is
// asynchronous (the ingest queue hop), so the test polls /tracez until the
// late spans land.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/demon-mining/demon/internal/blockio"
	"github.com/demon-mining/demon/internal/obs"
)

// withTracedRegistry installs an enabled process-global registry carrying a
// tracer, restoring the previous one when the test ends. The server, the
// miners and diskio all record through obs.Default().
func withTracedRegistry(t *testing.T, sample float64) *obs.Registry {
	t.Helper()
	reg := freshDefault(t)
	reg.SetTracer(obs.NewTracer(obs.DefaultTraceCapacity, sample))
	return reg
}

func getTrace(t *testing.T, ts *httptest.Server, id string) (obs.TraceSnapshot, bool) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/tracez?id=" + id)
	if err != nil {
		t.Fatalf("GET /tracez: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return obs.TraceSnapshot{}, false
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/tracez Content-Type = %q", ct)
	}
	var snap obs.TraceSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode trace: %v", err)
	}
	return snap, true
}

func TestE2ETracePropagation(t *testing.T) {
	withTracedRegistry(t, 0) // sampling off: only the explicit ID must trace

	s := mustServer(t, t.TempDir())
	if _, err := s.Create(Spec{Name: "tx", Kind: KindItemset, MinSupport: 0.2, Strategy: "ecut"}); err != nil {
		t.Fatalf("create: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const traceID = "e2e-trace-7"
	var body strings.Builder
	if err := blockio.NewEncoder(&body).Encode(blockio.TxBlock(txRows(40, 0))); err != nil {
		t.Fatalf("encode: %v", err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/namespaces/tx/blocks", strings.NewReader(body.String()))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	req.Header.Set(obs.TraceIDHeader, traceID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	// The trace ID round-trips on the response so clients can follow up.
	if got := resp.Header.Get(obs.TraceIDHeader); got != traceID {
		t.Fatalf("response %s = %q, want %q", obs.TraceIDHeader, got, traceID)
	}

	// The block applies asynchronously behind the queue hop; poll until every
	// stage of the path has recorded its span.
	want := []string{
		"serve.http.request.ns",
		"serve.queue.wait.ns",
		"miner.itemset.addblock.ns",
		"diskio.txn.commit.ns",
	}
	var snap obs.TraceSnapshot
	deadline := time.Now().Add(10 * time.Second)
	for {
		var ok bool
		snap, ok = getTrace(t, ts, traceID)
		if ok {
			have := map[string]bool{}
			for _, sp := range snap.Spans {
				have[sp.Name] = true
			}
			missing := false
			for _, name := range want {
				if !have[name] {
					missing = true
				}
			}
			if !missing {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace incomplete after 10s: %+v", snap.Spans)
		}
		time.Sleep(10 * time.Millisecond)
	}

	if snap.ID != traceID {
		t.Errorf("trace ID = %q", snap.ID)
	}
	byName := map[string]obs.TraceSpan{}
	for _, sp := range snap.Spans {
		if sp.SpanID == 0 {
			t.Errorf("span %s has zero ID", sp.Name)
		}
		byName[sp.Name] = sp
	}
	// The queue wait and the handler span share the request as parent: the
	// wait is a child of the HTTP span the block was enqueued under.
	httpSpan := byName["serve.http.request.ns"]
	if httpSpan.ParentID != 0 {
		t.Errorf("HTTP span has parent %d", httpSpan.ParentID)
	}
	if got := byName["serve.queue.wait.ns"].ParentID; got != httpSpan.SpanID {
		t.Errorf("queue wait parent = %d, want %d", got, httpSpan.SpanID)
	}
	if got := byName["miner.itemset.addblock.ns"].ParentID; got != httpSpan.SpanID {
		t.Errorf("addblock parent = %d, want %d", got, httpSpan.SpanID)
	}
	// The commit nests under the miner's AddBlock span.
	if got := byName["diskio.txn.commit.ns"].ParentID; got != byName["miner.itemset.addblock.ns"].SpanID {
		t.Errorf("commit parent = %d, want %d", got, byName["miner.itemset.addblock.ns"].SpanID)
	}
	if len(snap.Slowest) == 0 {
		t.Error("snapshot has no slowest-span summary")
	}

	// An un-ID'd request with sampling off must stay untraced: no header, and
	// the ring still holds only the explicit trace.
	resp2, err := http.Get(ts.URL + "/v1/namespaces/tx/itemsets?top=3")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get(obs.TraceIDHeader); got != "" {
		t.Errorf("unsampled response carries trace ID %q", got)
	}

	// The aggregate view saw the same spans: the timer histograms moved.
	snapAll := obs.Default().Snapshot()
	for _, name := range want {
		if snapAll.Timers[name].Count == 0 {
			t.Errorf("timer %s never recorded", name)
		}
	}
}

// TestReadyz covers the readiness surface: ready while healthy, 503 with the
// failing namespace named once a namespace sticks, and 503 while draining.
func TestReadyz(t *testing.T) {
	withTracedRegistry(t, 0)

	s := mustServer(t, t.TempDir())
	if _, err := s.Create(Spec{Name: "tx", Kind: KindItemset, MinSupport: 0.2, Strategy: "ecut"}); err != nil {
		t.Fatalf("create: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type nsReady struct {
		Name       string `json:"name"`
		Ready      bool   `json:"ready"`
		QueueDepth int    `json:"queue_depth"`
		Error      string `json:"error,omitempty"`
	}
	type readiness struct {
		Ready      bool      `json:"ready"`
		Draining   bool      `json:"draining"`
		Namespaces []nsReady `json:"namespaces"`
	}
	fetch := func() (int, readiness) {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatalf("GET /readyz: %v", err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Fatalf("/readyz Content-Type = %q", ct)
		}
		var rep readiness
		if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
			t.Fatalf("decode /readyz: %v", err)
		}
		return resp.StatusCode, rep
	}

	code, rep := fetch()
	if code != http.StatusOK || !rep.Ready || rep.Draining {
		t.Fatalf("healthy readyz = %d %+v", code, rep)
	}
	if len(rep.Namespaces) != 1 || rep.Namespaces[0].Name != "tx" || !rep.Namespaces[0].Ready {
		t.Fatalf("namespace report: %+v", rep.Namespaces)
	}
}
