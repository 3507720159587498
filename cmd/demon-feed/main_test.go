package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/demon-mining/demon/internal/blockio"
	"github.com/demon-mining/demon/internal/cli"
	"github.com/demon-mining/demon/internal/client"
	"github.com/demon-mining/demon/internal/obs"
	"github.com/demon-mining/demon/internal/obs/log"
	"github.com/demon-mining/demon/internal/serve"
)

const stream = `{"txs":[[1,2,3],[1,2]]}` + "\n" + `{"txs":[[1,2],[4]]}` + "\n\n" + `{"txs":[[2,3]]}` + "\n"

// summary is the one-line JSON demon-feed prints on stdout.
type summary struct {
	Read, Sent, Duplicates, Retries, Resyncs int64
}

// newServer serves one itemset namespace, "retail", over httptest, through
// wrap when it is not nil.
func newServer(t *testing.T, wrap func(http.Handler) http.Handler) (*httptest.Server, *serve.Namespace) {
	t.Helper()
	prev := log.SetDefault(nil)
	t.Cleanup(func() { log.SetDefault(prev) })
	prevReg := obs.SetDefault(obs.NewRegistry())
	t.Cleanup(func() { obs.SetDefault(prevReg) })
	srv, err := serve.New(serve.Config{Root: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	n, err := srv.Create(serve.Spec{Name: "retail", Kind: serve.KindItemset, MinSupport: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	hs := httptest.NewServer(h)
	t.Cleanup(func() {
		hs.Close()
		if err := srv.Drain(context.Background()); err != nil {
			t.Error(err)
		}
	})
	return hs, n
}

func feed(t *testing.T, url, in string, ckptEvery int, sync bool) summary {
	t.Helper()
	f, err := client.New(client.Config{BaseURL: url, Namespace: "retail"})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(context.Background(), f, blockio.NewLineDecoder(strings.NewReader(in), 0), &out, ckptEvery, sync, true); err != nil {
		t.Fatal(err)
	}
	var s summary
	if err := json.Unmarshal(out.Bytes(), &s); err != nil {
		t.Fatalf("stdout %q: %v", out.String(), err)
	}
	return s
}

// TestRunFeedsExactlyOnce: three blocks go in once; the same stream again is
// acknowledged as three duplicates when sent blind, dropped client-side
// after a status sync, and in neither case ingested twice.
func TestRunFeedsExactlyOnce(t *testing.T) {
	hs, _ := newServer(t, nil)
	if s := feed(t, hs.URL, stream, 2, true); s.Read != 3 || s.Sent != 3 || s.Duplicates != 0 {
		t.Errorf("first feed: %+v, want read 3, sent 3", s)
	}
	if s := feed(t, hs.URL, stream, 0, false); s.Read != 3 || s.Sent != 0 || s.Duplicates != 3 {
		t.Errorf("blind re-feed: %+v, want read 3, sent 0, duplicates 3", s)
	}
	if s := feed(t, hs.URL, stream, 0, true); s.Read != 3 || s.Sent != 0 || s.Duplicates != 0 {
		t.Errorf("synced re-feed: %+v, want read 3 and nothing on the wire", s)
	}
}

// dropPosts hijacks and closes the first n ingest POSTs before the server
// reads them: an outage the feeder sees as n transport failures.
func dropPosts(n int64) func(http.Handler) http.Handler {
	var seen atomic.Int64
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/blocks") && seen.Add(1) <= n {
				if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
					conn.Close()
				}
				return
			}
			h.ServeHTTP(w, r)
		})
	}
}

// feedThrough runs demon-feed's loop over stream with a fresh Feeder, one
// block per POST and no backoff delay.
func feedThrough(url string, maxAttempts int) error {
	f, err := client.New(client.Config{BaseURL: url, Namespace: "retail", BatchSize: 1, MaxAttempts: maxAttempts,
		Sleep: func(context.Context, time.Duration) error { return nil }})
	if err != nil {
		return err
	}
	return run(context.Background(), f, blockio.NewLineDecoder(strings.NewReader(stream), 0), &bytes.Buffer{}, 0, true, true)
}

// TestRunAppliesEachLineOnceThroughAnOutage: five dropped POSTs are retried
// within the attempt budget, and each input line is applied once.
func TestRunAppliesEachLineOnceThroughAnOutage(t *testing.T) {
	hs, n := newServer(t, dropPosts(5))
	if err := feedThrough(hs.URL, 0); err != nil {
		t.Fatal(err)
	}
	if got := n.T(); got != 3 {
		t.Errorf("3 input lines applied %d blocks", got)
	}
}

// TestRerunAfterGivingUpResumes: a run whose attempt budget is shorter than
// the outage fails, and running it again over the same input resumes from
// the server's marks and applies each line once.
func TestRerunAfterGivingUpResumes(t *testing.T) {
	hs, n := newServer(t, dropPosts(5))
	if err := feedThrough(hs.URL, 3); err == nil || !strings.Contains(err.Error(), "send failed") {
		t.Fatalf("first run through 5 dropped POSTs with 3 attempts: %v, want a send error", err)
	}
	if err := feedThrough(hs.URL, 3); err != nil {
		t.Fatalf("second run: %v", err)
	}
	if got := n.T(); got != 3 {
		t.Errorf("3 input lines applied %d blocks over two runs", got)
	}
}

func TestRunErrors(t *testing.T) {
	hs, _ := newServer(t, nil)
	f, err := client.New(client.Config{BaseURL: hs.URL, Namespace: "retail"})
	if err != nil {
		t.Fatal(err)
	}
	err = run(context.Background(), f, blockio.NewLineDecoder(strings.NewReader(`{"txs":[[1]]}`+"\n"+`{"bogus":1}`+"\n"), 0), &bytes.Buffer{}, 0, true, true)
	if err == nil || !strings.Contains(err.Error(), "reading stdin") {
		t.Errorf("malformed second line: %v, want a reading-stdin error", err)
	}

	f, err = client.New(client.Config{BaseURL: hs.URL, Namespace: "nowhere", MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), f, blockio.NewLineDecoder(strings.NewReader(stream), 0), &bytes.Buffer{}, 0, true, true); err == nil || !strings.Contains(err.Error(), "initial sync failed") {
		t.Errorf("unknown namespace: %v, want an initial-sync error", err)
	}
}

// TestUsage: a missing -ns is the caller's mistake — exit 2 before any I/O —
// and the shared log flags are accepted.
func TestUsage(t *testing.T) {
	var stderr bytes.Buffer
	if code := cli.Run(context.Background(), "demon-feed", []string{"-log-level", "warn", "-log-format", "json"}, &stderr, setup); code != 2 {
		t.Errorf("missing -ns exits %d, want 2", code)
	}
	if got := stderr.String(); got != "demon-feed: -ns is required\n" {
		t.Errorf("stderr = %q", got)
	}
}
