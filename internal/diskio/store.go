// Package diskio provides the storage substrate for DEMON: a simple
// key-addressed object store with byte-level I/O accounting. The paper's
// experiments hinge on how much data each counting strategy fetches (a
// TID-list of an item is one to two orders of magnitude smaller than the
// whole dataset, Section 3.1.1), so every read and write through a Store is
// counted. Two backends live here: MemStore, in memory, for tests and
// benchmarks, and FileStore, one file per key, for the CLI tools; the
// single-file log is package kvfile.
//
// What Keys costs differs by backend, and Recover lists "staging/" on every
// open. FileStore walks the directory the prefix names. MemStore keeps a
// count of live keys per Dir, so an empty directory (staging/, on every
// clean open) lists at once and any other prefix scans all keys. kvfile
// scans its index: the same counter kept while its open rebuilds the index
// cost more than the listing it saves (about 4 ms per reopen of 65 k keys
// against 1.5–2.5 ms).
package diskio

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
)

// ErrNotFound is returned by Get and Size for keys that were never Put (or
// were deleted).
var ErrNotFound = errors.New("diskio: key not found")

// Stats accumulates I/O counters for a Store. All fields are totals since the
// store was created (or since ResetStats).
type Stats struct {
	BytesRead    int64
	BytesWritten int64
	Reads        int64
	Writes       int64
}

// Store is a flat key-addressed object store. Implementations are safe for
// concurrent use. Keys are non-empty strings; slashes are allowed and map to
// directories in the file-backed implementation.
type Store interface {
	// Put stores data under key, replacing any previous value.
	Put(key string, data []byte) error
	// Get returns the value stored under key.
	Get(key string) ([]byte, error)
	// Size returns the stored size in bytes without counting a read.
	Size(key string) (int64, error)
	// Delete removes key. Deleting an absent key is not an error.
	Delete(key string) error
	// Keys returns all keys with the given prefix, sorted.
	Keys(prefix string) ([]string, error)
	// Stats returns a snapshot of the I/O counters.
	Stats() Stats
	// ResetStats zeroes the I/O counters.
	ResetStats()
}

// KV is one put of a Batcher.Apply batch.
type KV struct {
	Key   string
	Value []byte
}

// Batcher is the optional atomic-batch capability of a Store. Apply makes
// every put and delete of the batch take effect together: all or nothing,
// never half-visible to a concurrent reader, durable on return under the
// store's own flush policy. Values are copied like Put copies them. A key
// may appear at most once across puts and dels; an empty or repeated key
// rejects the whole batch with nothing applied, and an empty batch is a
// no-op. Stats count a batch like the Puts and Deletes it replaces, so the
// I/O accounting stays per key.
//
// Decorators implement Apply by forwarding and answer CanApply for the
// store they wrap, so test for the capability with AsBatcher, not with a
// bare type assertion.
type Batcher interface {
	Apply(puts []KV, dels []string) error
}

// AsBatcher returns the atomic-batch capability of s itself. It never looks
// through Unwrap: a decorator that does not forward Apply hides the
// capability of what it wraps, and sees every operation instead.
func AsBatcher(s Store) (Batcher, bool) {
	b, ok := s.(Batcher)
	if !ok {
		return nil, false
	}
	if d, ok := s.(interface{ CanApply() bool }); ok && !d.CanApply() {
		return nil, false
	}
	return b, true
}

// canApply is a decorator's CanApply: whether the store it wraps batches.
func canApply(inner Store) bool {
	_, ok := AsBatcher(inner)
	return ok
}

// errNoBatch is a decorator's Apply over a store without the capability.
func errNoBatch(inner Store) error {
	return fmt.Errorf("diskio: store %T has no atomic batch", inner)
}

// CheckBatch enforces the key rules of the Batcher contract; the stores
// that implement Apply natively call it before touching anything.
func CheckBatch(puts []KV, dels []string) error {
	seen := make(map[string]struct{}, len(puts)+len(dels))
	check := func(key string) error {
		if key == "" {
			return errors.New("diskio: empty key in batch")
		}
		if _, dup := seen[key]; dup {
			return fmt.Errorf("diskio: key %q twice in one batch", key)
		}
		seen[key] = struct{}{}
		return nil
	}
	for _, kv := range puts {
		if err := check(kv.Key); err != nil {
			return err
		}
	}
	for _, k := range dels {
		if err := check(k); err != nil {
			return err
		}
	}
	return nil
}

// counters is embedded by both implementations.
type counters struct {
	bytesRead    atomic.Int64
	bytesWritten atomic.Int64
	reads        atomic.Int64
	writes       atomic.Int64
}

func (c *counters) countRead(n int)  { c.bytesRead.Add(int64(n)); c.reads.Add(1) }
func (c *counters) countWrite(n int) { c.bytesWritten.Add(int64(n)); c.writes.Add(1) }

func (c *counters) Stats() Stats {
	return Stats{
		BytesRead:    c.bytesRead.Load(),
		BytesWritten: c.bytesWritten.Load(),
		Reads:        c.reads.Load(),
		Writes:       c.writes.Load(),
	}
}

func (c *counters) ResetStats() {
	c.bytesRead.Store(0)
	c.bytesWritten.Store(0)
	c.reads.Store(0)
	c.writes.Store(0)
}

// Dir returns the directory a key or prefix lies in: the key through its
// first slash, or "" when it has none.
func Dir(key string) string {
	return key[:strings.IndexByte(key, '/')+1]
}

// MemStore is an in-memory Store. The zero value is not usable; construct
// with NewMemStore.
type MemStore struct {
	counters
	mu   sync.RWMutex
	m    map[string][]byte
	dirs map[string]int // live keys per Dir, so an empty directory lists at once
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{m: make(map[string][]byte), dirs: make(map[string]int)}
}

// put and del write one key under the write lock. They count the key's
// directory only when the map's size says the key came or went, so an
// overwrite or an absent delete costs no extra lookup.
func (s *MemStore) put(key string, data []byte) {
	n := len(s.m)
	s.m[key] = data
	if len(s.m) > n {
		s.dirs[Dir(key)]++
	}
}

func (s *MemStore) del(key string) {
	n := len(s.m)
	delete(s.m, key)
	if len(s.m) < n {
		d := Dir(key)
		if s.dirs[d]--; s.dirs[d] == 0 {
			delete(s.dirs, d)
		}
	}
}

// Put implements Store.
func (s *MemStore) Put(key string, data []byte) error {
	if key == "" {
		return errors.New("diskio: empty key")
	}
	c := make([]byte, len(data))
	copy(c, data)
	s.mu.Lock()
	s.put(key, c)
	s.mu.Unlock()
	s.countWrite(len(data))
	return nil
}

// Get implements Store.
func (s *MemStore) Get(key string) ([]byte, error) {
	s.mu.RLock()
	data, ok := s.m[key]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	c := make([]byte, len(data))
	copy(c, data)
	s.countRead(len(data))
	return c, nil
}

// Size implements Store.
func (s *MemStore) Size(key string) (int64, error) {
	s.mu.RLock()
	data, ok := s.m[key]
	s.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return int64(len(data)), nil
}

// Delete implements Store.
func (s *MemStore) Delete(key string) error {
	s.mu.Lock()
	s.del(key)
	s.mu.Unlock()
	return nil
}

// Apply implements Batcher: the whole batch lands under one write lock.
func (s *MemStore) Apply(puts []KV, dels []string) error {
	if err := CheckBatch(puts, dels); err != nil {
		return err
	}
	vals := make([][]byte, len(puts))
	for i, kv := range puts {
		vals[i] = append([]byte(nil), kv.Value...)
	}
	s.mu.Lock()
	for i, kv := range puts {
		s.put(kv.Key, vals[i])
	}
	for _, k := range dels {
		s.del(k)
	}
	s.mu.Unlock()
	for _, v := range vals {
		s.countWrite(len(v))
	}
	return nil
}

// Keys implements Store. A prefix whose directory holds no key lists nothing
// at once; any other prefix scans every key.
func (s *MemStore) Keys(prefix string) ([]string, error) {
	s.mu.RLock()
	if d := Dir(prefix); d != "" && s.dirs[d] == 0 {
		s.mu.RUnlock()
		return nil, nil
	}
	var keys []string
	for k := range s.m {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	s.mu.RUnlock()
	sort.Strings(keys)
	return keys, nil
}

// TotalSize returns the sum of all stored value sizes. Useful for the
// Figure 3 space-overhead experiment.
func (s *MemStore) TotalSize(prefix string) int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var total int64
	for k, v := range s.m {
		if strings.HasPrefix(k, prefix) {
			total += int64(len(v))
		}
	}
	return total
}

// FileStore is a Store backed by one file per key under a root directory.
// Key slashes become subdirectories; all other key bytes must be safe path
// characters (letters, digits, '.', '-', '_').
type FileStore struct {
	counters
	root string
	mu   sync.Mutex // serializes directory creation
}

// NewFileStore creates (if needed) and opens a file-backed store rooted at
// dir.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskio: creating store root: %w", err)
	}
	return &FileStore{root: dir}, nil
}

// checkKey enforces the key grammar every backend can store: non-empty
// slash-separated parts of letters, digits, '.', '-' and '_', none of them
// "." or "..". FileStore needs it to map keys to paths; TxnStore holds every
// transactional key to it, so that no journal is ever committed that some
// backend then cannot apply.
func checkKey(key string) error {
	if key == "" {
		return errors.New("diskio: empty key")
	}
	for _, part := range strings.Split(key, "/") {
		if part == "" || part == "." || part == ".." {
			return fmt.Errorf("diskio: invalid key %q", key)
		}
		for _, r := range part {
			ok := r == '.' || r == '-' || r == '_' ||
				(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
				(r >= '0' && r <= '9')
			if !ok {
				return fmt.Errorf("diskio: invalid key character %q in %q", r, key)
			}
		}
	}
	return nil
}

func (s *FileStore) path(key string) (string, error) {
	if err := checkKey(key); err != nil {
		return "", err
	}
	return filepath.Join(s.root, filepath.FromSlash(key)), nil
}

// Put implements Store. The write is durable and atomic at the file level:
// data goes to a temp file that is fsynced before being renamed over the
// final path, and the parent directory is fsynced so the rename itself
// survives a crash. A reader therefore sees either the old value or the new
// one, never a torn file — the property the commit protocol builds on.
func (s *FileStore) Put(key string, data []byte) error {
	p, err := s.path(key)
	if err != nil {
		return err
	}
	s.mu.Lock()
	err = os.MkdirAll(filepath.Dir(p), 0o755)
	s.mu.Unlock()
	if err != nil {
		return fmt.Errorf("diskio: put %s: %w", key, err)
	}
	tmp := p + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("diskio: put %s: %w", key, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("diskio: put %s: %w", key, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("diskio: put %s: syncing: %w", key, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("diskio: put %s: %w", key, err)
	}
	if err := os.Rename(tmp, p); err != nil {
		return fmt.Errorf("diskio: put %s: %w", key, err)
	}
	if err := syncDir(filepath.Dir(p)); err != nil {
		return fmt.Errorf("diskio: put %s: %w", key, err)
	}
	s.countWrite(len(data))
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Get implements Store.
func (s *FileStore) Get(key string) ([]byte, error) {
	p, err := s.path(key)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(p)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
		}
		return nil, fmt.Errorf("diskio: get %s: %w", key, err)
	}
	s.countRead(len(data))
	return data, nil
}

// Size implements Store.
func (s *FileStore) Size(key string) (int64, error) {
	p, err := s.path(key)
	if err != nil {
		return 0, err
	}
	fi, err := os.Stat(p)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, fmt.Errorf("%w: %s", ErrNotFound, key)
		}
		return 0, fmt.Errorf("diskio: size %s: %w", key, err)
	}
	return fi.Size(), nil
}

// Delete implements Store.
func (s *FileStore) Delete(key string) error {
	p, err := s.path(key)
	if err != nil {
		return err
	}
	if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("diskio: delete %s: %w", key, err)
	}
	return nil
}

// Keys implements Store. It walks only the directory the prefix names up to
// its last slash; where that is no directory, nothing is listed.
func (s *FileStore) Keys(prefix string) ([]string, error) {
	dir := s.root
	if i := strings.LastIndexByte(prefix, '/'); i >= 0 {
		if checkKey(prefix[:i]) != nil {
			return nil, nil // no storable key lies below it
		}
		dir = filepath.Join(s.root, filepath.FromSlash(prefix[:i]))
	}
	var keys []string
	err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err != nil && p == dir && (errors.Is(err, os.ErrNotExist) || errors.Is(err, syscall.ENOTDIR)) {
			return nil
		}
		if err != nil {
			return err
		}
		if d.IsDir() || strings.HasSuffix(p, ".tmp") {
			return nil
		}
		rel, err := filepath.Rel(s.root, p)
		if err != nil {
			return err
		}
		key := filepath.ToSlash(rel)
		if strings.HasPrefix(key, prefix) {
			keys = append(keys, key)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("diskio: keys: %w", err)
	}
	sort.Strings(keys)
	return keys, nil
}
