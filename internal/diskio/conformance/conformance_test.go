package conformance_test

import (
	"path/filepath"
	"testing"

	"github.com/demon-mining/demon/internal/diskio"
	"github.com/demon-mining/demon/internal/diskio/conformance"
	"github.com/demon-mining/demon/internal/diskio/kvfile"
)

// Every backend and decorator in the repository runs against the one shared
// oracle. A new backend earns its place here before anything else.

func TestMemStore(t *testing.T) {
	conformance.RunStoreTests(t, func(t *testing.T) diskio.Store {
		return diskio.NewMemStore()
	})
}

func TestFileStore(t *testing.T) {
	conformance.RunStoreTests(t, func(t *testing.T) diskio.Store {
		fs, err := diskio.NewFileStore(t.TempDir())
		if err != nil {
			t.Fatalf("NewFileStore: %v", err)
		}
		return fs
	})
}

func TestChecksumStore(t *testing.T) {
	conformance.RunStoreTests(t, func(t *testing.T) diskio.Store {
		return diskio.NewChecksumStore(diskio.NewMemStore())
	})
}

func TestTxnStoreIdle(t *testing.T) {
	conformance.RunStoreTests(t, func(t *testing.T) diskio.Store {
		return diskio.NewTxnStore(diskio.NewMemStore())
	})
}

// TestTxnStoreActive runs the whole suite inside one open transaction: the
// staged view must be observationally indistinguishable from a plain store.
func TestTxnStoreActive(t *testing.T) {
	conformance.RunStoreTests(t, func(t *testing.T) diskio.Store {
		ts := diskio.NewTxnStore(diskio.NewMemStore())
		ts.Begin()
		t.Cleanup(func() {
			if err := ts.Commit(); err != nil {
				t.Errorf("Commit: %v", err)
			}
		})
		return ts
	})
}

// TestTxnStoreActiveJournaled is the same over a store without the
// atomic-batch capability, so the suite's writes commit through the journal.
func TestTxnStoreActiveJournaled(t *testing.T) {
	conformance.RunStoreTests(t, func(t *testing.T) diskio.Store {
		base := diskio.NewMemStore()
		ts := diskio.NewTxnStore(struct{ diskio.Store }{base})
		ts.Begin()
		t.Cleanup(func() {
			if err := ts.Commit(); err != nil {
				t.Errorf("Commit: %v", err)
			}
			if keys, err := base.Keys(diskio.StagingPrefix); err != nil || len(keys) != 0 {
				t.Errorf("commit left %v under %s (%v)", keys, diskio.StagingPrefix, err)
			}
		})
		return ts
	})
}

func TestFaultStoreDisarmed(t *testing.T) {
	conformance.RunStoreTests(t, func(t *testing.T) diskio.Store {
		return diskio.NewFaultStore(diskio.NewMemStore())
	})
}

func TestKVFile(t *testing.T) {
	conformance.RunStoreTests(t, func(t *testing.T) diskio.Store {
		s, err := kvfile.Open(filepath.Join(t.TempDir(), "store.kv"), kvfile.Options{})
		if err != nil {
			t.Fatalf("kvfile.Open: %v", err)
		}
		t.Cleanup(func() {
			if err := s.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		})
		return s
	})
}

func TestKVFileBatchedSync(t *testing.T) {
	conformance.RunStoreTests(t, func(t *testing.T) diskio.Store {
		s, err := kvfile.Open(filepath.Join(t.TempDir(), "store.kv"), kvfile.Options{SyncEvery: 32})
		if err != nil {
			t.Fatalf("kvfile.Open: %v", err)
		}
		t.Cleanup(func() {
			if err := s.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		})
		return s
	})
}

// TestKVFileReopened runs the suite against a kvfile store that is seeded,
// closed, and reopened per subtest start — exercising the index rebuild path
// as part of the same contract. (Each subtest still starts empty; reopening
// an empty committed store must behave like a fresh one.)
func TestKVFileReopened(t *testing.T) {
	conformance.RunStoreTests(t, func(t *testing.T) diskio.Store {
		path := filepath.Join(t.TempDir(), "store.kv")
		s, err := kvfile.Open(path, kvfile.Options{})
		if err != nil {
			t.Fatalf("kvfile.Open: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		s, err = kvfile.Open(path, kvfile.Options{})
		if err != nil {
			t.Fatalf("kvfile reopen: %v", err)
		}
		t.Cleanup(func() {
			if err := s.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		})
		return s
	})
}

func TestCacheStoreTinyBudget(t *testing.T) {
	// A 1 KiB budget forces constant eviction; behavior must not change.
	conformance.RunStoreTests(t, func(t *testing.T) diskio.Store {
		return diskio.NewCacheStore(diskio.NewMemStore(), 1<<10)
	})
}

func TestCacheStoreLargeBudget(t *testing.T) {
	conformance.RunStoreTests(t, func(t *testing.T) diskio.Store {
		return diskio.NewCacheStore(diskio.NewMemStore(), 16<<20)
	})
}

func TestCacheOverKVFile(t *testing.T) {
	conformance.RunStoreTests(t, func(t *testing.T) diskio.Store {
		s, err := kvfile.Open(filepath.Join(t.TempDir(), "store.kv"), kvfile.Options{})
		if err != nil {
			t.Fatalf("kvfile.Open: %v", err)
		}
		t.Cleanup(func() {
			if err := s.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		})
		return diskio.NewCacheStore(s, 1<<20)
	})
}

// TestOpenURLStacks runs the suite against the full stacks diskio.Open
// builds from each URL scheme — what the CLIs and demon-serve actually use.
func TestOpenURLStacks(t *testing.T) {
	for _, tc := range []struct {
		name string
		url  func(dir string) string
	}{
		{"mem", func(string) string { return "mem:" }},
		{"file", func(dir string) string { return "file:" + filepath.Join(dir, "store") }},
		{"kvfile", func(dir string) string { return "kvfile:" + filepath.Join(dir, "store.kv") }},
		{"kvfile-cache", func(dir string) string {
			return "kvfile:" + filepath.Join(dir, "store.kv") + "?cache=64kb"
		}},
		{"file-cache", func(dir string) string {
			return "file:" + filepath.Join(dir, "store") + "?cache=64kb"
		}},
		{"kvfile-batched", func(dir string) string {
			return "kvfile:" + filepath.Join(dir, "store.kv") + "?sync=16"
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conformance.RunStoreTests(t, func(t *testing.T) diskio.Store {
				s, err := diskio.Open(tc.url(t.TempDir()))
				if err != nil {
					t.Fatalf("Open: %v", err)
				}
				t.Cleanup(func() {
					if err := diskio.CloseStore(s); err != nil {
						t.Errorf("CloseStore: %v", err)
					}
				})
				return s
			})
		})
	}
}
