package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

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

// newServer serves one itemset namespace, "retail", over httptest.
func newServer(t *testing.T) *httptest.Server {
	t.Helper()
	prev := log.SetDefault(nil)
	t.Cleanup(func() { log.SetDefault(prev) })
	srv, err := serve.New(serve.Config{Root: t.TempDir(), Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Create(serve.Spec{Name: "retail", Kind: serve.KindItemset, MinSupport: 0.2}); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		if err := srv.Drain(context.Background()); err != nil {
			t.Error(err)
		}
	})
	return hs
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
	hs := newServer(t)
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

func TestRunErrors(t *testing.T) {
	hs := newServer(t)
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
