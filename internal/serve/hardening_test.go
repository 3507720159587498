package serve

// HTTP-level tests of the ISSUE-8 server hardening: the sequenced ingest
// contract (duplicates acknowledged as idempotent no-ops, gaps and mode
// mixing rejected), the body and per-line 413 caps with their rejection
// counters, persistence of the sequence marks across a drain/restart, and
// the http.Server timeouts demon-serve runs with.

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/demon-mining/demon/internal/blockio"
	"github.com/demon-mining/demon/internal/obs"
)

// seqLines encodes tx blocks carrying the given sequence numbers as one
// NDJSON request body.
func seqLines(t *testing.T, seqs ...uint64) string {
	t.Helper()
	var body strings.Builder
	enc := blockio.NewEncoder(&body)
	for _, s := range seqs {
		b := blockio.TxBlock(txRows(6, int(s)))
		b.Seq = s
		if err := enc.Encode(b); err != nil {
			t.Fatalf("encode seq %d: %v", s, err)
		}
	}
	return body.String()
}

// postNDJSON posts a raw NDJSON body and decodes the ingest result whatever
// the status code.
func postNDJSON(t *testing.T, ts *httptest.Server, ns, body string) (int, ingestResult) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/namespaces/"+ns+"/blocks", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST blocks: %v", err)
	}
	defer resp.Body.Close()
	var res ingestResult
	if err := decodeJSONBody(resp.Body, &res); err != nil {
		t.Fatalf("decode ingest result: %v", err)
	}
	return resp.StatusCode, res
}

func decodeJSONBody(r io.Reader, v any) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

func TestIngestSequencedContract(t *testing.T) {
	root := t.TempDir()
	s := mustServer(t, root)
	if _, err := s.Create(Spec{Name: "tx", Kind: KindItemset, MinSupport: 0.2, Strategy: "ecut"}); err != nil {
		t.Fatalf("create: %v", err)
	}
	ts := httptest.NewServer(s.Handler())

	// Blocks 1, 2 enroll the namespace in sequencing.
	code, res := postNDJSON(t, ts, "tx", seqLines(t, 1, 2))
	if code != http.StatusAccepted || res.Accepted != 2 || res.NextSeq != 3 {
		t.Fatalf("initial ingest: code %d, %+v; want 202, accepted 2, next_seq 3", code, res)
	}

	// A pure re-send is an idempotent success: 200 with "duplicate": true,
	// nothing enqueued twice.
	code, res = postNDJSON(t, ts, "tx", seqLines(t, 1, 2))
	if code != http.StatusOK || !res.Duplicate || res.Duplicates != 2 || res.Accepted != 0 {
		t.Fatalf("duplicate re-send: code %d, %+v; want 200 duplicate=true duplicates=2", code, res)
	}

	// A retry overlapping the accepted prefix acks the overlap and ingests
	// the rest — the ambiguous-failure recovery a chaos-torn request needs.
	code, res = postNDJSON(t, ts, "tx", seqLines(t, 2, 3))
	if code != http.StatusAccepted || res.Accepted != 1 || res.Duplicates != 1 || res.NextSeq != 4 {
		t.Fatalf("overlapping retry: code %d, %+v; want 202 accepted=1 duplicates=1 next_seq=4", code, res)
	}

	// A gap means a lost block: reject, tell the client what is expected.
	code, res = postNDJSON(t, ts, "tx", seqLines(t, 9))
	if code != http.StatusConflict || res.NextSeq != 4 || res.Error == "" {
		t.Fatalf("gap: code %d, %+v; want 409 with next_seq 4", code, res)
	}

	// Once sequenced, a seq-less block would break the accounting: reject.
	var plain strings.Builder
	if err := blockio.NewEncoder(&plain).Encode(blockio.TxBlock(txRows(6, 0))); err != nil {
		t.Fatal(err)
	}
	if code, res = postNDJSON(t, ts, "tx", plain.String()); code != http.StatusConflict {
		t.Fatalf("unsequenced block on sequenced stream: code %d (%+v), want 409", code, res)
	}

	// Checkpoint promotes the applied mark to durable — the client trim point.
	resp, err := http.Post(ts.URL+"/v1/namespaces/tx/flush?checkpoint=1", "", nil)
	if err != nil {
		t.Fatalf("flush: %v", err)
	}
	var st nsStatus
	if err := decodeJSONBody(resp.Body, &st); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	resp.Body.Close()
	if st.Seq != 3 || st.AppliedSeq != 3 || st.DurableSeq != 3 || st.NextSeq != 4 {
		t.Fatalf("status after checkpoint: %+v; want seq/applied/durable 3, next 4", st)
	}

	// Drain and restart: the marks must come back from the store.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	ts.Close()
	s2 := mustServer(t, root)
	n, ok := s2.Namespace("tx")
	if !ok {
		t.Fatal("restart lost namespace")
	}
	if acc, app, dur := n.Seq(); acc != 3 || app != 3 || dur != 3 {
		t.Fatalf("restored seq marks (%d, %d, %d), want (3, 3, 3)", acc, app, dur)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	// The restarted namespace still dedupes and still takes the next block.
	if code, res = postNDJSON(t, ts2, "tx", seqLines(t, 3)); code != http.StatusOK || !res.Duplicate {
		t.Fatalf("post-restart duplicate: code %d (%+v), want 200 duplicate=true", code, res)
	}
	if code, res = postNDJSON(t, ts2, "tx", seqLines(t, 4)); code != http.StatusAccepted || res.Accepted != 1 {
		t.Fatalf("post-restart next block: code %d (%+v), want 202 accepted=1", code, res)
	}

	// Drain before the test returns: the worker still owns block 4, and the
	// TempDir cleanup must not race its transaction.
	if err := s2.Drain(ctx); err != nil {
		t.Fatalf("final drain: %v", err)
	}
	if acc, app, dur := n.Seq(); acc != 4 || app != 4 || dur != 4 {
		t.Fatalf("final seq marks (%d, %d, %d), want (4, 4, 4)", acc, app, dur)
	}
}

// freshDefault installs an empty registry as the process default for the
// test, so the counters it reads start at zero.
func freshDefault(t *testing.T) *obs.Registry {
	t.Helper()
	reg := obs.NewRegistry()
	prev := obs.SetDefault(reg)
	t.Cleanup(func() { obs.SetDefault(prev) })
	return reg
}

func TestIngestBodyCapReturns413(t *testing.T) {
	reg := freshDefault(t)
	s, err := New(Config{Root: t.TempDir(), MaxIngestBytes: 96})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := s.Create(Spec{Name: "tx", Kind: KindItemset, MinSupport: 0.2, Strategy: "ecut"}); err != nil {
		t.Fatalf("create: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, res := postNDJSON(t, ts, "tx", seqLines(t, 1, 2, 3, 4))
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: code %d (%+v), want 413", code, res)
	}
	if res.Error == "" {
		t.Fatal("413 carries no error message")
	}
	if v := reg.Counter("serve.ingest.rejected|reason=body").Value(); v != 1 {
		t.Fatalf("rejected|reason=body counter = %d, want 1", v)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestIngestLineCapReturns413(t *testing.T) {
	reg := freshDefault(t)
	s, err := New(Config{Root: t.TempDir(), MaxIngestBytes: -1, MaxLineBytes: 64})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := s.Create(Spec{Name: "tx", Kind: KindItemset, MinSupport: 0.2, Strategy: "ecut"}); err != nil {
		t.Fatalf("create: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A small block passes, the oversized line is refused — the response
	// reports the accepted prefix so the client can resume past it.
	small := seqLines(t, 1)
	if len(small) > 64 {
		t.Fatalf("test block unexpectedly large (%d bytes)", len(small))
	}
	code, res := postNDJSON(t, ts, "tx", small+strings.Repeat(" ", 80)+"\n")
	if code != http.StatusRequestEntityTooLarge || res.Accepted != 1 {
		t.Fatalf("oversized line: code %d (%+v), want 413 with accepted=1", code, res)
	}
	if v := reg.Counter("serve.ingest.rejected|reason=line").Value(); v != 1 {
		t.Fatalf("rejected|reason=line counter = %d, want 1", v)
	}
	// The accepted block is still in flight; drain so the TempDir cleanup
	// cannot race its transaction.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestHTTPTimeoutsServer(t *testing.T) {
	def := DefaultHTTPTimeouts()
	srv := def.Server("127.0.0.1:0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout != def.ReadHeader || srv.ReadTimeout != def.Read ||
		srv.WriteTimeout != def.Write || srv.IdleTimeout != def.Idle {
		t.Fatalf("Server() dropped timeouts: %+v vs %+v", srv, def)
	}
	if srv.ReadHeaderTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatal("default timeouts must be set — a bare http.Server lets one stalled client hold a connection forever")
	}
}

// TestHTTPHeaderTimeoutDropsStalledConn proves the Slowloris guard actually
// fires: a client that connects and never sends headers is cut loose.
func TestHTTPHeaderTimeoutDropsStalledConn(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := HTTPTimeouts{ReadHeader: 50 * time.Millisecond, Read: time.Second,
		Write: time.Second, Idle: time.Second}.Server("", http.NotFoundHandler())
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("stalled connection: got %v, want EOF (server-side close) well before the read deadline", err)
	}
}

// TestIngestNegativeItemReturns400: an item id below zero — which once
// reached the delta codec on the worker and took the process down — is a
// decode error on the request, and the namespace keeps ingesting.
func TestIngestNegativeItemReturns400(t *testing.T) {
	reg := freshDefault(t)
	s, err := New(Config{Root: t.TempDir()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := s.Create(Spec{Name: "tx", Kind: KindItemset, MinSupport: 0.2}); err != nil {
		t.Fatalf("create: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, res := postNDJSON(t, ts, "tx", `{"txs":[[-1]]}`+"\n")
	if code != http.StatusBadRequest || res.Accepted != 0 || !strings.Contains(res.Error, "negative item") {
		t.Fatalf("negative item: code %d (%+v), want 400 naming the negative item", code, res)
	}
	if v := reg.Counter("serve.ingest.rejected|reason=decode").Value(); v != 1 {
		t.Fatalf("rejected|reason=decode counter = %d, want 1", v)
	}
	if code, res := postNDJSON(t, ts, "tx", seqLines(t, 1)); code != http.StatusAccepted || res.Accepted != 1 {
		t.Fatalf("valid block after the refusal: code %d (%+v), want 202 with accepted=1", code, res)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	ns, _ := s.Namespace("tx")
	if _, applied, _ := ns.Seq(); applied != 1 {
		t.Fatalf("applied seq after the drain = %d, want 1", applied)
	}
}
