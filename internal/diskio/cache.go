package diskio

import (
	"container/list"
	"sync"

	"github.com/demon-mining/demon/internal/obs"
)

// CacheStore is a size-bounded read-through LRU cache over another Store,
// meant for hot TID-lists and checkpoint pages: Get serves repeated reads
// from memory, Put writes through to the inner store and refreshes the
// cached copy, and Delete invalidates. The cache is observationally
// identical to the inner store for Get/Size/Keys — only the Stats of the
// inner store change (a cache hit performs no inner read).
//
// Hit, miss and eviction counts are published to the default obs registry
// under diskio.cache.hits / diskio.cache.misses / diskio.cache.evictions,
// and the resident byte count under the gauge diskio.cache.bytes.
type CacheStore struct {
	inner    Store
	maxBytes int64

	mu    sync.Mutex
	bytes int64
	lru   *list.List // front = most recently used; values are *cacheEntry
	items map[string]*list.Element
	// gen counts mutations (Put/Delete/invalidate). A read-miss fill is
	// abandoned when gen moved between the miss and the fill, so a racing
	// Delete or Put can never be overwritten by a stale value read before
	// it — the coherence half of "observationally identical".
	gen uint64
	// applying counts Apply calls in flight; while it is non-zero no value
	// is admitted to the cache.
	applying int

	hits, misses, evictions *obs.Counter
	resident                *obs.Gauge
}

type cacheEntry struct {
	key  string
	data []byte
}

// NewCacheStore wraps inner with an LRU read cache bounded to maxBytes of
// cached values (keys are not charged). A maxBytes <= 0 disables caching
// entirely (every Get is a miss that is not retained).
func NewCacheStore(inner Store, maxBytes int64) *CacheStore {
	r := obs.Default()
	return &CacheStore{
		inner:     inner,
		maxBytes:  maxBytes,
		lru:       list.New(),
		items:     make(map[string]*list.Element),
		hits:      r.Counter("diskio.cache.hits"),
		misses:    r.Counter("diskio.cache.misses"),
		evictions: r.Counter("diskio.cache.evictions"),
		resident:  r.Gauge("diskio.cache.bytes"),
	}
}

// Unwrap returns the wrapped store.
func (s *CacheStore) Unwrap() Store { return s.inner }

// lookup returns a copy of the cached value, if any, along with the
// mutation generation observed on a miss.
func (s *CacheStore) lookup(key string) ([]byte, bool, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		s.misses.Inc()
		return nil, false, s.gen
	}
	s.lru.MoveToFront(el)
	data := el.Value.(*cacheEntry).data
	c := make([]byte, len(data))
	copy(c, data)
	s.hits.Inc()
	return c, true, 0
}

// store caches a copy of data under key, evicting least-recently-used
// entries past the byte budget. Values larger than the whole budget are not
// cached. gen is the mutation generation observed before the operation that
// produced data: a read-miss fill (mutation = false) is abandoned when the
// generation moved between the miss and the fill, while a write-through
// refresh (mutation = true) whose generation moved instead drops the key —
// the racing mutations may have reached the inner store in either order, so
// no cached copy is trustworthy — and in both cases a mutation bumps the
// generation so concurrent stale fills are discarded.
func (s *CacheStore) store(key string, data []byte, gen uint64, mutation bool) {
	if s.maxBytes <= 0 {
		return // caching disabled; nothing is ever resident
	}
	if int64(len(data)) > s.maxBytes {
		s.invalidate(key)
		return
	}
	c := make([]byte, len(data))
	copy(c, data)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gen != gen || s.applying > 0 {
		if mutation {
			s.gen++
			s.dropLocked(key)
		}
		return
	}
	if mutation {
		s.gen++
	}
	if el, ok := s.items[key]; ok {
		e := el.Value.(*cacheEntry)
		s.bytes += int64(len(c)) - int64(len(e.data))
		e.data = c
		s.lru.MoveToFront(el)
	} else {
		s.items[key] = s.lru.PushFront(&cacheEntry{key: key, data: c})
		s.bytes += int64(len(c))
	}
	for s.bytes > s.maxBytes {
		el := s.lru.Back()
		if el == nil {
			break
		}
		e := el.Value.(*cacheEntry)
		s.lru.Remove(el)
		delete(s.items, e.key)
		s.bytes -= int64(len(e.data))
		s.evictions.Inc()
	}
	s.resident.Set(s.bytes)
}

// invalidate drops key from the cache and bumps the mutation generation.
func (s *CacheStore) invalidate(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gen++
	s.dropLocked(key)
}

// dropLocked removes key from the cache, if present. Callers hold mu.
func (s *CacheStore) dropLocked(key string) {
	if el, ok := s.items[key]; ok {
		e := el.Value.(*cacheEntry)
		s.lru.Remove(el)
		delete(s.items, key)
		s.bytes -= int64(len(e.data))
		s.resident.Set(s.bytes)
	}
}

// Put implements Store: write-through, then refresh the cached copy. On
// inner failure nothing is cached, so the cache never gets ahead of the
// durable state. The refresh is guarded by the generation observed before
// the inner write: if another mutation raced this one, the key is dropped
// instead of refreshed, since the inner store may hold either value.
func (s *CacheStore) Put(key string, data []byte) error {
	s.mu.Lock()
	gen := s.gen
	s.mu.Unlock()
	if err := s.inner.Put(key, data); err != nil {
		s.invalidate(key)
		return err
	}
	s.store(key, data, gen, true)
	return nil
}

// Get implements Store, serving hits from memory.
func (s *CacheStore) Get(key string) ([]byte, error) {
	data, ok, gen := s.lookup(key)
	if ok {
		return data, nil
	}
	data, err := s.inner.Get(key)
	if err != nil {
		return nil, err
	}
	s.store(key, data, gen, false)
	return data, nil
}

// Size implements Store, answering from the cache when possible.
func (s *CacheStore) Size(key string) (int64, error) {
	s.mu.Lock()
	if el, ok := s.items[key]; ok {
		n := int64(len(el.Value.(*cacheEntry).data))
		s.mu.Unlock()
		return n, nil
	}
	s.mu.Unlock()
	return s.inner.Size(key)
}

// Delete implements Store, invalidating after the inner delete completes:
// the generation bump then postdates the inner mutation, so a concurrent
// read-miss fill that observed the pre-delete value is discarded by the
// fill-generation guard and the deleted key can never be resurrected from
// cache. (Invalidating before the inner delete would leave a window where a
// reader re-fills the still-present value with no later invalidation.)
func (s *CacheStore) Delete(key string) error {
	err := s.inner.Delete(key)
	s.invalidate(key)
	return err
}

// CanApply reports whether the wrapped store batches; see AsBatcher.
func (s *CacheStore) CanApply() bool { return canApply(s.inner) }

// Apply implements Batcher over a batching store. A cached value of the
// batch served next to a fresh one read from the inner store would make the
// batch half visible, so its keys are dropped before the inner write and
// nothing is admitted to the cache while it runs; the generation bump after
// it discards the fills of reads that raced it. The new values are cached
// when first read.
func (s *CacheStore) Apply(puts []KV, dels []string) error {
	b, ok := AsBatcher(s.inner)
	if !ok {
		return errNoBatch(s.inner)
	}
	s.mu.Lock()
	s.applying++
	for _, kv := range puts {
		s.dropLocked(kv.Key)
	}
	for _, k := range dels {
		s.dropLocked(k)
	}
	s.mu.Unlock()
	err := b.Apply(puts, dels)
	s.mu.Lock()
	s.applying--
	s.gen++
	s.mu.Unlock()
	return err
}

// Keys implements Store.
func (s *CacheStore) Keys(prefix string) ([]string, error) { return s.inner.Keys(prefix) }

// Stats implements Store. Cache hits perform no inner read, so BytesRead of
// a cached stack measures actual inner-store traffic — exactly what the
// paper's I/O accounting wants.
func (s *CacheStore) Stats() Stats { return s.inner.Stats() }

// ResetStats implements Store.
func (s *CacheStore) ResetStats() { s.inner.ResetStats() }

// Scrub forwards to the inner store's checksum layer and invalidates every
// quarantined key.
func (s *CacheStore) Scrub(prefix string) (*ScrubReport, error) {
	sc, ok := findScrubber(s.inner)
	if !ok {
		return nil, errNoScrub(s.inner)
	}
	rep, err := sc.Scrub(prefix)
	if rep != nil {
		for _, k := range rep.Quarantined {
			s.invalidate(k)
		}
	}
	return rep, err
}

// Purge empties the cache (counters are preserved).
func (s *CacheStore) Purge() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gen++
	s.lru.Init()
	s.items = make(map[string]*list.Element)
	s.bytes = 0
	s.resident.Set(0)
}

// CachedBytes returns the resident value bytes.
func (s *CacheStore) CachedBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// CachedLen returns the resident entry count.
func (s *CacheStore) CachedLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}
