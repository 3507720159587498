package diskio

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Store URLs give every tool one syntax for selecting a storage backend:
//
//	mem:                        in-memory store (tests, experiments)
//	file:DIR                    one file per key under DIR, durable stack
//	kvfile:PATH                 single-file KV engine at PATH, durable stack
//
// An optional query string tunes the stack:
//
//	?cache=SIZE                 wrap an LRU read cache (e.g. 64kb, 16mb)
//	?sync=N                     kvfile only: fsync-batch every N mutations
//
// file: and kvfile: resolve to the crash-safe production stack — the base
// backend wrapped with transient-error retries and CRC-checksummed record
// framing (the same stack NewDurableFileStore builds), optionally topped by
// the cache. mem: stays plain, matching what tests expect of NewMemStore.
//
// Backends outside this package register themselves with RegisterScheme
// (kvfile does, from its init), so Open has no dependency on them.

// OpenFunc opens a registered backend: path is everything between the
// scheme's colon and the '?', opts the parsed query parameters.
type OpenFunc func(path string, opts map[string]string) (Store, error)

var (
	schemeMu sync.RWMutex
	schemes  = make(map[string]OpenFunc)
)

// RegisterScheme installs a backend under a URL scheme; registering a
// duplicate panics (it is a wiring bug, like a duplicate flag).
func RegisterScheme(scheme string, open OpenFunc) {
	schemeMu.Lock()
	defer schemeMu.Unlock()
	if _, dup := schemes[scheme]; dup {
		panic("diskio: duplicate store scheme " + scheme)
	}
	schemes[scheme] = open
}

// Schemes lists the registered backend schemes (including the built-in mem
// and file), sorted.
func Schemes() []string {
	schemeMu.RLock()
	defer schemeMu.RUnlock()
	out := []string{"file", "mem"}
	for s := range schemes {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// ParseStoreURL splits "scheme:path?k=v" into its parts. A URL with no
// colon is an error — callers that accept bare directories should apply
// their default scheme before calling Open.
func ParseStoreURL(rawurl string) (scheme, path string, opts map[string]string, err error) {
	scheme, rest, ok := strings.Cut(rawurl, ":")
	if !ok || scheme == "" {
		return "", "", nil, fmt.Errorf("diskio: store URL %q has no scheme (want scheme:path)", rawurl)
	}
	path, query, _ := strings.Cut(rest, "?")
	opts = make(map[string]string)
	if query != "" {
		for _, kv := range strings.Split(query, "&") {
			k, v, _ := strings.Cut(kv, "=")
			if k == "" {
				return "", "", nil, fmt.Errorf("diskio: store URL %q: empty option name", rawurl)
			}
			opts[k] = v
		}
	}
	return scheme, path, opts, nil
}

// ParseSize parses a byte size: a plain integer, or one with a kb/mb/gb
// suffix (powers of 1024; case-insensitive, 'b' optional). A negative size
// and one that does not fit an int64 are errors.
func ParseSize(s string) (int64, error) {
	t := strings.ToLower(strings.TrimSpace(s))
	mult := int64(1)
	for _, u := range []struct {
		suffix string
		mult   int64
	}{{"kb", 1 << 10}, {"k", 1 << 10}, {"mb", 1 << 20}, {"m", 1 << 20}, {"gb", 1 << 30}, {"g", 1 << 30}, {"b", 1}} {
		if strings.HasSuffix(t, u.suffix) {
			t, mult = strings.TrimSuffix(t, u.suffix), u.mult
			break
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(t), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("diskio: bad size %q: %w", s, err)
	}
	if n < 0 || n > math.MaxInt64/mult {
		return 0, fmt.Errorf("diskio: bad size %q: want 0 to %d bytes", s, int64(math.MaxInt64))
	}
	return n * mult, nil
}

// Open builds the store stack a URL describes. See the package comment on
// url.go for the syntax. The returned store should be released with
// CloseStore when the backend holds OS resources (kvfile does).
func Open(rawurl string) (Store, error) {
	scheme, path, opts, err := ParseStoreURL(rawurl)
	if err != nil {
		return nil, err
	}
	known := map[string]bool{"cache": true}
	var base Store
	switch scheme {
	case "mem":
		if path != "" {
			return nil, fmt.Errorf("diskio: mem: store takes no path (got %q)", path)
		}
		base = NewMemStore()
	case "file":
		if path == "" {
			return nil, fmt.Errorf("diskio: file: store needs a directory")
		}
		fs, err := NewFileStore(path)
		if err != nil {
			return nil, err
		}
		base = NewChecksumStore(NewRetryStore(fs))
	default:
		schemeMu.RLock()
		open := schemes[scheme]
		schemeMu.RUnlock()
		if open == nil {
			return nil, fmt.Errorf("diskio: unknown store scheme %q (registered: %s)",
				scheme, strings.Join(Schemes(), ", "))
		}
		// Backend-specific options are the backend's business; it must
		// reject the ones it does not know.
		for k := range opts {
			if k != "cache" {
				known[k] = true
			}
		}
		inner, err := open(path, withoutKey(opts, "cache"))
		if err != nil {
			return nil, err
		}
		base = NewChecksumStore(NewRetryStore(inner))
	}
	for k := range opts {
		if !known[k] {
			return nil, fmt.Errorf("diskio: store URL %q: unknown option %q", rawurl, k)
		}
	}
	if v, ok := opts["cache"]; ok {
		n, err := ParseSize(v)
		if err != nil {
			return nil, err
		}
		if n > 0 {
			base = NewCacheStore(base, n)
		}
	}
	return base, nil
}

// withoutKey returns opts minus one key (the original map is not modified).
func withoutKey(opts map[string]string, key string) map[string]string {
	out := make(map[string]string, len(opts))
	for k, v := range opts {
		if k != key {
			out[k] = v
		}
	}
	return out
}

// Unwrapper is implemented by decorating stores; CloseStore and the scrub
// helpers walk the chain through it.
type Unwrapper interface {
	Unwrap() Store
}

// CloseStore walks the decorator chain and closes the first store that
// holds OS resources (io.Closer). Stores without one (MemStore, FileStore)
// make it a no-op, so callers can close unconditionally.
func CloseStore(s Store) error {
	for s != nil {
		if c, ok := s.(io.Closer); ok {
			return c.Close()
		}
		u, ok := s.(Unwrapper)
		if !ok {
			return nil
		}
		s = u.Unwrap()
	}
	return nil
}

// ScrubChain walks the decorator chain to the first store that can scrub
// (a ChecksumStore, or a CacheStore forwarding with invalidation) and runs
// its sweep. It fails when no layer carries checksummed framing.
func ScrubChain(s Store, prefix string) (*ScrubReport, error) {
	sc, ok := findScrubber(s)
	if !ok {
		return nil, errNoScrub(s)
	}
	return sc.Scrub(prefix)
}

// scrubber is the checksum layer's sweep interface.
type scrubber interface {
	Scrub(prefix string) (*ScrubReport, error)
}

// findScrubber walks the chain to the first store that can scrub.
func findScrubber(s Store) (scrubber, bool) {
	for s != nil {
		if sc, ok := s.(scrubber); ok {
			return sc, true
		}
		u, ok := s.(Unwrapper)
		if !ok {
			return nil, false
		}
		s = u.Unwrap()
	}
	return nil, false
}

func errNoScrub(s Store) error {
	return fmt.Errorf("diskio: store %T has no checksummed framing to scrub", s)
}
