package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"github.com/demon-mining/demon/internal/blockio"
)

// TestWindowNamespaceStaysFlat feeds a window namespace on kvfile 10·(w+N)
// blocks over HTTP: its store holds as many keys at the end as after
// 2·(w+N) blocks — the expired blocks leave with the window — and after a
// restart it serves the frequent itemsets it served before, and stays flat
// as it goes on.
func TestWindowNamespaceStaysFlat(t *testing.T) {
	const w, every = 3, 4
	root := t.TempDir()
	s := mustServer(t, root)
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close() }()
	if _, err := s.Create(Spec{Name: "win", Kind: KindWindow, MinSupport: 0.2, Strategy: "ecutplus",
		WindowSize: w, CheckpointEvery: every, Store: "kvfile", QueueDepth: w + every}); err != nil {
		t.Fatalf("create: %v", err)
	}

	sent := 0
	// feed posts n blocks, w+N to a request, and waits until they are applied.
	feed := func(n int) {
		t.Helper()
		for n > 0 {
			batch := make([]blockio.Block, min(n, w+every))
			for i := range batch {
				batch[i] = blockio.TxBlock(txRows(40, sent))
				sent++
			}
			n -= len(batch)
			if res := postBlocks(t, ts, "win", batch...); res.Accepted != len(batch) {
				t.Fatalf("accepted %d blocks, want %d", res.Accepted, len(batch))
			}
			resp, err := http.Post(ts.URL+"/v1/namespaces/win/flush", "", nil)
			if err != nil {
				t.Fatalf("flush: %v", err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("flush: status %d", resp.StatusCode)
			}
		}
	}
	keyCount := func(s *Server) int {
		t.Helper()
		n, ok := s.Namespace("win")
		if !ok {
			t.Fatal("namespace win is gone")
		}
		keys, err := n.Store().Keys("")
		if err != nil {
			t.Fatal(err)
		}
		return len(keys)
	}

	feed(2 * (w + every))
	want := keyCount(s)
	feed(8 * (w + every))
	if got := keyCount(s); got != want {
		t.Fatalf("after %d blocks the store holds %d keys, after %d it held %d", sent, got, 2*(w+every), want)
	}
	var before, after []itemsetJSON
	if code := getJSON(t, ts.URL+"/v1/namespaces/win/itemsets", &before); code != http.StatusOK || len(before) == 0 {
		t.Fatalf("itemsets: status %d, %d itemsets", code, len(before))
	}

	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	ts.Close()
	s = mustServer(t, root)
	ts = httptest.NewServer(s.Handler())
	if code := getJSON(t, ts.URL+"/v1/namespaces/win/itemsets", &after); code != http.StatusOK {
		t.Fatalf("itemsets after restart: status %d", code)
	}
	if !reflect.DeepEqual(after, before) {
		t.Fatalf("itemsets after restart:\n%v\nbefore:\n%v", after, before)
	}
	// The blocks written before the restart expire from their transactions.
	feed(w + every)
	if got := keyCount(s); got != want {
		t.Fatalf("after the restart and %d blocks the store holds %d keys, want %d", sent, got, want)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
}
