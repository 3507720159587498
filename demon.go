// Package demon is a from-scratch Go implementation of DEMON — Data
// Evolution and MONitoring (Ganti, Gehrke, Ramakrishnan, ICDE 2000) — a
// framework for mining systematically evolving data: databases that grow by
// whole blocks at a time (a data warehouse loaded nightly, a log rotated
// hourly) rather than by arbitrary record updates.
//
// The package offers the paper's complete problem space:
//
//   - Data span dimension. Mine all data collected so far (the unrestricted
//     window) with ItemsetMiner and ClusterMiner, or only the w most recent
//     blocks (the most recent window) with ItemsetWindowMiner and
//     ClusterWindowMiner, which are instances of the generic GEMM algorithm.
//
//   - Block selection sequences. Restrict either window to a sub-sequence of
//     blocks — "every Monday", "alternate days in the last four weeks" —
//     with window-independent or window-relative bit sequences.
//
//   - Model maintenance. Frequent itemsets are maintained by the BORDERS
//     algorithm with a pluggable update-phase counting strategy: PTScan (the
//     baseline full scan), ECUT (item TID-lists) or ECUTPlus (materialized
//     2-itemset TID-lists). Clusters are maintained by BIRCH+, the
//     incremental extension of BIRCH.
//
//   - Pattern detection. Monitor discovers compact sequences of pairwise
//     similar blocks using the FOCUS deviation framework, e.g. "weekday
//     traffic looks alike, except Labor Day and one anomalous Monday", and
//     CompareTransactionBlocks explains how two blocks differ.
//
//   - Derived results and operations. Rules turns a maintained model into
//     association rules; Checkpoint/Restore persist miner state through the
//     Store.
//
// All state lives behind a Store (in-memory or file-backed); every
// maintainer is deterministic given its inputs — including the window
// miners, whose GEMM slot updates fan across goroutines and whose results
// are identical for every Workers setting.
// Miners and the Monitor allow any number of concurrent readers (for example
// FrequentItemsets or Patterns) alongside one mutator (AddBlock and
// friends); mutators must not race with each other.
package demon

import (
	"fmt"
	"strings"

	"github.com/demon-mining/demon/internal/blockseq"
	"github.com/demon-mining/demon/internal/cf"
	"github.com/demon-mining/demon/internal/diskio"
	_ "github.com/demon-mining/demon/internal/diskio/kvfile" // register the kvfile: store scheme
	"github.com/demon-mining/demon/internal/itemset"
	"github.com/demon-mining/demon/internal/version"
)

// VersionInfo is the build identity of the running binary: module version,
// VCS revision, and toolchain. Every CLI prints it under -version and
// demon-serve exposes it at /versionz.
type VersionInfo = version.Info

// Version reports the build identity of the running binary, read from the
// Go toolchain's embedded build info.
func Version() VersionInfo { return version.Get() }

// Item is a literal from the item universe of a transactional database.
type Item = itemset.Item

// Itemset is a canonical (sorted, duplicate-free) set of items. Build one
// with NewItemset.
type Itemset = itemset.Itemset

// NewItemset builds a canonical itemset from items in any order.
func NewItemset(items ...Item) Itemset { return itemset.NewItemset(items...) }

// Lattice is a frequent-itemset model: the frequent itemsets and the
// negative border, with support counts.
type Lattice = itemset.Lattice

// BlockID identifies a block; identifiers increase in arrival order.
type BlockID = blockseq.ID

// Window is an inclusive range of block identifiers D[Lo, Hi].
type Window = blockseq.Window

// BSS is a window-independent block selection sequence: one bit per absolute
// block identifier.
type BSS = blockseq.BSS

// WindowRelBSS is a window-relative block selection sequence: one bit per
// window position, moving with the window.
type WindowRelBSS = blockseq.WindowRelBSS

// AllBlocks returns the BSS selecting every block (the classic maintenance
// setting).
func AllBlocks() BSS { return blockseq.All{} }

// EveryNth returns the BSS selecting blocks with id ≡ offset (mod period) —
// "every Monday" when blocks are daily and block `offset` is a Monday.
func EveryNth(period, offset int) BSS { return blockseq.Periodic{Period: period, Offset: offset} }

// BSSFunc adapts a predicate over block identifiers to a BSS.
func BSSFunc(f func(BlockID) bool) BSS { return blockseq.Func(f) }

// ParseWindowRelBSS parses a window-relative sequence from a "10110"-style
// bit string; bit 1 is the oldest position of the window.
func ParseWindowRelBSS(s string) (WindowRelBSS, error) { return blockseq.ParseWindowRel(s) }

// Point is an n-dimensional point for the clustering miners.
type Point = cf.Point

// TreeConfig parameterizes the CF-tree of the clustering miners; see
// ClusterMinerConfig.Tree.
type TreeConfig = cf.TreeConfig

// DefaultTreeConfig returns the CF-tree defaults the clustering miners use
// when ClusterMinerConfig.Tree is left zero.
func DefaultTreeConfig() TreeConfig { return cf.DefaultTreeConfig() }

// Store is the persistence interface blocks and TID-lists are stored
// through; see NewMemStore and OpenStore.
type Store = diskio.Store

// NewMemStore returns an in-memory Store with I/O accounting — the right
// choice for tests and experiments.
func NewMemStore() Store { return diskio.NewMemStore() }

// OpenStore builds a store stack from a store URL: "mem:" (in-memory),
// "file:DIR" (one file per key) or "kvfile:PATH" (single-file KV engine),
// optionally with "?cache=SIZE" for an LRU read cache — see the diskio
// package for the full syntax. The durable schemes come back wrapped in
// CRC-checksummed record framing. A handle whose store failed is not
// repaired in place: close it and open the URL again. Pair with CloseStore.
func OpenStore(url string) (Store, error) { return diskio.Open(url) }

// CloseStore releases a store opened with OpenStore. Backends without OS
// resources make it a no-op, so callers can close unconditionally.
func CloseStore(s Store) error { return diskio.CloseStore(s) }

// DirStoreURL resolves the CLI convention for -store flags: a value with a
// URL scheme is passed through verbatim (the backend argument is ignored —
// the URL already names one), a bare path becomes the given scheme over
// that path ("file" wants a directory, "kvfile" a file path placed inside
// the directory).
func DirStoreURL(backend, path string) (string, error) {
	if hasStoreScheme(path) {
		return path, nil
	}
	switch backend {
	case "", "file":
		return "file:" + path, nil
	case "kvfile":
		return "kvfile:" + path + "/store.kv", nil
	default:
		return "", fmt.Errorf("demon: unknown store backend %q (want file or kvfile)", backend)
	}
}

// hasStoreScheme reports whether s starts with a URL scheme ("mem:",
// "kvfile:", ...). A single letter before the colon is treated as a path
// (Windows drive letters), matching the common URL-vs-path heuristic.
func hasStoreScheme(s string) bool {
	i := strings.IndexByte(s, ':')
	if i < 2 {
		return false
	}
	for _, r := range s[:i] {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '+', r == '-', r == '.':
		default:
			return false
		}
	}
	return true
}

// ErrCorrupt tags errors caused by damaged on-disk data — a failed checksum,
// truncated framing, or malformed checkpoint metadata. Test with errors.Is.
var ErrCorrupt = diskio.ErrCorrupt

// ErrNegativeItem tags the refusal of a transaction block carrying an item id
// below zero, by the AddBlock of every transaction miner and monitor. Test
// with errors.Is.
var ErrNegativeItem = itemset.ErrNegativeItem

// ScrubReport summarizes what ScrubStore did.
type ScrubReport = diskio.ScrubReport

// ScrubStore verifies the checksum of every record under prefix (all records
// when prefix is empty), quarantining corrupt ones. The store must carry
// checksummed framing somewhere in its stack, e.g. one OpenStore built for
// file: or kvfile: — decorators like the read cache are walked through.
func ScrubStore(s Store, prefix string) (*ScrubReport, error) {
	return diskio.ScrubChain(s, prefix)
}

// StoreStats is the I/O counter snapshot of a Store.
type StoreStats = diskio.Stats

// ItemsetSupport pairs an itemset with its fractional support.
type ItemsetSupport struct {
	Itemset Itemset
	Support float64
	Count   int
}

// CountingStrategy selects the BORDERS update-phase counting procedure.
type CountingStrategy int

const (
	// PTScan organizes candidates in a prefix tree and scans every
	// transaction of the selected blocks — the BORDERS baseline.
	PTScan CountingStrategy = iota
	// ECUT intersects per-block item TID-lists, fetching only the data
	// relevant to the counted itemsets.
	ECUT
	// ECUTPlus additionally materializes TID-lists of frequent 2-itemsets
	// per block and counts through them.
	ECUTPlus
)

// ParseCountingStrategy resolves a strategy's command-line and namespace-spec
// name: ptscan, ecut or ecutplus.
func ParseCountingStrategy(name string) (CountingStrategy, error) {
	switch name {
	case "ptscan":
		return PTScan, nil
	case "ecut":
		return ECUT, nil
	case "ecutplus":
		return ECUTPlus, nil
	default:
		return 0, fmt.Errorf("unknown counting strategy %q (want ptscan, ecut or ecutplus)", name)
	}
}

// String names the strategy as the paper does.
func (s CountingStrategy) String() string {
	switch s {
	case PTScan:
		return "PT-Scan"
	case ECUT:
		return "ECUT"
	case ECUTPlus:
		return "ECUT+"
	default:
		return "unknown"
	}
}
