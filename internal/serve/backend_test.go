package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/demon-mining/demon/internal/blockio"
)

// TestNamespaceStoreBackends exercises the per-namespace backend selection:
// a namespace created with store=kvfile+cache lives in a single file, the
// server default fills in unset specs and is stamped into the persisted
// spec, and a restart under a *different* default still resumes every
// namespace on the backend it was created with.
func TestNamespaceStoreBackends(t *testing.T) {
	root := t.TempDir()
	s, err := New(Config{Root: root, DefaultStoreBackend: "kvfile"})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	create := func(spec string, wantCode int) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/namespaces", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Fatalf("create %s: status %d, want %d", spec, resp.StatusCode, wantCode)
		}
	}
	create(`{"name":"explicit","kind":"itemset","min_support":0.2,"store":"kvfile","cache_bytes":65536}`, http.StatusCreated)
	create(`{"name":"defaulted","kind":"itemset","min_support":0.2}`, http.StatusCreated)
	create(`{"name":"bad","kind":"itemset","min_support":0.2,"store":"bogus"}`, http.StatusBadRequest)
	create(`{"name":"badcache","kind":"itemset","min_support":0.2,"cache_bytes":-1}`, http.StatusBadRequest)

	for _, ns := range []string{"explicit", "defaulted"} {
		res := postBlocks(t, ts, ns, blockio.TxBlock(txRows(40, 0)), blockio.TxBlock(txRows(40, 1)))
		if res.Accepted != 2 {
			t.Fatalf("%s: accepted %d blocks, want 2", ns, res.Accepted)
		}
		resp, err := http.Post(ts.URL+"/v1/namespaces/"+ns+"/flush?checkpoint=1", "", nil)
		if err != nil {
			t.Fatalf("flush %s: %v", ns, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("flush %s: status %d", ns, resp.StatusCode)
		}
	}

	// Both namespaces must live in the kvfile backend's single file, and the
	// defaulted one must have the resolved backend stamped into its spec.
	for _, ns := range []string{"explicit", "defaulted"} {
		kv := filepath.Join(root, ns, "store", "store.kv")
		if _, err := os.Stat(kv); err != nil {
			t.Fatalf("%s has no kvfile store: %v", ns, err)
		}
		spec, err := readSpec(filepath.Join(root, ns))
		if err != nil {
			t.Fatalf("readSpec %s: %v", ns, err)
		}
		if spec.Store != "kvfile" {
			t.Fatalf("%s persisted store backend %q, want kvfile", ns, spec.Store)
		}
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	ts.Close()

	// Restart under a different default: the persisted backend wins.
	s2, err := New(Config{Root: root, DefaultStoreBackend: "file"})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	for _, ns := range []string{"explicit", "defaulted"} {
		n, ok := s2.Namespace(ns)
		if !ok {
			t.Fatalf("resumed server lost namespace %s", ns)
		}
		if n.T() != 2 {
			t.Fatalf("%s resumed at block %d, want 2", ns, n.T())
		}
		if len(n.m().miner.(itemsetQueries).FrequentItemsets()) == 0 {
			t.Fatalf("%s resumed with an empty model", ns)
		}
	}
	if err := s2.Drain(context.Background()); err != nil {
		t.Fatalf("drain resumed server: %v", err)
	}

	// Deleting a kvfile namespace closes its store and removes the tree.
	if err := s2.Delete(context.Background(), "explicit"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, err := os.Stat(filepath.Join(root, "explicit")); !os.IsNotExist(err) {
		t.Fatalf("deleted namespace directory still present (err=%v)", err)
	}

	// A server config with an unknown default backend is refused outright.
	if _, err := New(Config{Root: t.TempDir(), DefaultStoreBackend: "bogus"}); err == nil {
		t.Fatal("New accepted an unknown default store backend")
	}
}
