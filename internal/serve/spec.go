package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	demon "github.com/demon-mining/demon"
)

// Kind names the model class a namespace keeps resident.
type Kind string

const (
	// KindItemset maintains frequent itemsets over the unrestricted window
	// (BORDERS, ItemsetMiner).
	KindItemset Kind = "itemset"
	// KindWindow maintains frequent itemsets over the most recent window
	// (GEMM over BORDERS, ItemsetWindowMiner).
	KindWindow Kind = "window"
	// KindCluster maintains a cluster model over the unrestricted window
	// (BIRCH+, ClusterMiner).
	KindCluster Kind = "cluster"
	// KindMonitor runs the pattern detector over the block stream and serves
	// deviation reports (Monitor). Its durable state is the raw block
	// history, replayed on resume.
	KindMonitor Kind = "monitor"
)

// Spec is the durable configuration of a namespace: everything needed to
// re-create its miner on restart. It is written as namespace.json next to
// the namespace's store directory when the namespace is created and read
// back when the server reopens the root.
type Spec struct {
	// Name identifies the namespace in URLs and under the server root. It
	// must be non-empty and use only lower-case letters, digits, '-', '_'
	// and '.', so it is safe as a directory name.
	Name string `json:"name"`
	// Kind selects the model class: itemset, window, cluster, or monitor.
	Kind Kind `json:"kind"`
	// MinSupport is the fractional threshold κ of the itemset kinds and the
	// per-block mining threshold of the monitor kind.
	MinSupport float64 `json:"min_support,omitempty"`
	// Strategy selects the BORDERS counting strategy of the itemset kinds:
	// ptscan (default), ecut, or ecutplus.
	Strategy string `json:"strategy,omitempty"`
	// WindowSize is the w of the window kind.
	WindowSize int `json:"window_size,omitempty"`
	// WindowRelBSS optionally restricts the window kind with a
	// window-relative bit string ("10110"); its length fixes the window.
	WindowRelBSS string `json:"window_rel_bss,omitempty"`
	// Every/Offset optionally install a periodic window-independent BSS
	// ("every 7th block starting at 1") on the itemset and cluster kinds.
	Every  int `json:"every,omitempty"`
	Offset int `json:"offset,omitempty"`
	// K is the cluster count of the cluster kind.
	K int `json:"k,omitempty"`
	// Alpha is the similarity significance level of the monitor kind.
	Alpha float64 `json:"alpha,omitempty"`
	// Workers is the per-namespace parallel-ingestion knob (0 = serial; the
	// maintained model and the stored bytes are identical for every value).
	Workers int `json:"workers,omitempty"`
	// CheckpointEvery auto-checkpoints every N applied blocks, atomically
	// with the block itself; the server also checkpoints on drain and on
	// request, so 0 (off) is a fine default.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// QueueDepth bounds this namespace's ingest queue; 0 selects the server
	// default.
	QueueDepth int `json:"queue_depth,omitempty"`
	// Store selects the namespace's storage backend: "file" (one file per
	// key) or "kvfile" (single-file KV engine). Empty defers to the server's
	// default backend. The choice is durable — it is persisted with the spec
	// and honored on resume regardless of the server's later default.
	Store string `json:"store,omitempty"`
	// CacheBytes tops the store with an LRU read cache of this budget
	// (0 = no cache).
	CacheBytes int64 `json:"cache_bytes,omitempty"`
}

// nameOK reports whether a namespace name is safe as a directory name.
func nameOK(name string) bool {
	if name == "" || len(name) > 128 || strings.HasPrefix(name, ".") {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
		default:
			return false
		}
	}
	return true
}

// txKind reports whether the namespace ingests transaction blocks (as
// opposed to point blocks).
func (s Spec) txKind() bool { return s.Kind != KindCluster }

// workers resolves the Workers knob for the miner configurations, where zero
// would mean GOMAXPROCS: an omitted field is serial, as the field says.
func (s Spec) workers() int { return max(s.Workers, 1) }

// strategy resolves the counting strategy; an omitted field is ptscan.
func (s Spec) strategy() (demon.CountingStrategy, error) {
	if s.Strategy == "" {
		return demon.PTScan, nil
	}
	return demon.ParseCountingStrategy(s.Strategy)
}

// Validate checks the spec for internal consistency.
func (s Spec) Validate() error {
	if !nameOK(s.Name) {
		return fmt.Errorf("serve: invalid namespace name %q (want lower-case letters, digits, '-', '_', '.')", s.Name)
	}
	switch s.Kind {
	case KindItemset, KindWindow, KindMonitor:
		if s.MinSupport <= 0 || s.MinSupport >= 1 {
			return fmt.Errorf("serve: namespace %s: min_support %v outside (0, 1)", s.Name, s.MinSupport)
		}
	case KindCluster:
		if s.K < 1 {
			return fmt.Errorf("serve: namespace %s: cluster kind needs k >= 1", s.Name)
		}
	default:
		return fmt.Errorf("serve: namespace %s: unknown kind %q (want itemset, window, cluster, or monitor)", s.Name, s.Kind)
	}
	if s.Kind == KindWindow && s.WindowSize < 1 && s.WindowRelBSS == "" {
		return fmt.Errorf("serve: namespace %s: window kind needs window_size or window_rel_bss", s.Name)
	}
	if s.Kind != KindWindow && (s.WindowSize != 0 || s.WindowRelBSS != "") {
		return fmt.Errorf("serve: namespace %s: window_size/window_rel_bss require the window kind", s.Name)
	}
	if s.Kind == KindMonitor && s.Alpha <= 0 {
		return fmt.Errorf("serve: namespace %s: monitor kind needs alpha > 0", s.Name)
	}
	if _, err := s.strategy(); err != nil {
		return fmt.Errorf("serve: namespace %s: %w", s.Name, err)
	}
	if s.Every < 0 || s.QueueDepth < 0 || s.CheckpointEvery < 0 {
		return fmt.Errorf("serve: namespace %s: negative every/queue_depth/checkpoint_every", s.Name)
	}
	switch s.Store {
	case "", "file", "kvfile":
	default:
		return fmt.Errorf("serve: namespace %s: unknown store backend %q (want file or kvfile)", s.Name, s.Store)
	}
	if s.CacheBytes < 0 {
		return fmt.Errorf("serve: namespace %s: negative cache_bytes", s.Name)
	}
	return nil
}

// storeURL resolves the namespace's store URL under dir, applying the
// server's default backend when the spec leaves the choice open.
func (s Spec) storeURL(dir, defaultBackend string) (string, error) {
	backend := s.Store
	if backend == "" {
		backend = defaultBackend
	}
	url, err := demon.DirStoreURL(backend, filepath.Join(dir, "store"))
	if err != nil {
		return "", fmt.Errorf("serve: namespace %s: %w", s.Name, err)
	}
	if s.CacheBytes > 0 {
		url += fmt.Sprintf("?cache=%d", s.CacheBytes)
	}
	return url, nil
}

func (s Spec) bss() demon.BSS {
	if s.Every > 0 {
		return demon.EveryNth(s.Every, s.Offset)
	}
	return nil
}

const specFile = "namespace.json"

// writeSpec persists the spec atomically (temp file + rename) so a crash
// during namespace creation never leaves a half-written spec the next start
// would choke on.
func writeSpec(dir string, s Spec) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, specFile+".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(dir, specFile))
}

// readSpec loads and re-validates a persisted spec.
func readSpec(dir string) (Spec, error) {
	var s Spec
	data, err := os.ReadFile(filepath.Join(dir, specFile))
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("serve: parsing %s: %w", filepath.Join(dir, specFile), err)
	}
	if err := s.Validate(); err != nil {
		return s, err
	}
	return s, nil
}
