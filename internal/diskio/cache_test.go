package diskio

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/demon-mining/demon/internal/obs"
)

// TestCacheDifferential drives the same randomized op sequence against a
// cached store and a bare one, and demands identical observable behavior at
// every step — the "observationally identical" half of the cache contract.
func TestCacheDifferential(t *testing.T) {
	for _, budget := range []int64{64, 1 << 10, 1 << 20} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(budget) * 7919))
			cached := NewCacheStore(NewMemStore(), budget)
			bare := NewMemStore()
			keys := []string{"a", "b", "c", "d/e", "d/f", "g"}
			for step := 0; step < 4000; step++ {
				k := keys[rng.Intn(len(keys))]
				switch rng.Intn(6) {
				case 5: // Apply: put two keys, delete a third
					i := rng.Intn(len(keys))
					puts := []KV{{keys[i], bytes.Repeat([]byte{byte(step)}, rng.Intn(200))}, {keys[(i+1)%len(keys)], []byte{byte(step)}}}
					dels := []string{keys[(i+2)%len(keys)]}
					if err := cached.Apply(puts, dels); err != nil {
						t.Fatalf("step %d: cached Apply: %v", step, err)
					}
					if err := bare.Apply(puts, dels); err != nil {
						t.Fatalf("step %d: bare Apply: %v", step, err)
					}
				case 0, 1: // Put
					val := bytes.Repeat([]byte{byte(step)}, rng.Intn(200))
					if err := cached.Put(k, val); err != nil {
						t.Fatalf("step %d: cached Put: %v", step, err)
					}
					if err := bare.Put(k, val); err != nil {
						t.Fatalf("step %d: bare Put: %v", step, err)
					}
				case 2: // Get
					cv, cerr := cached.Get(k)
					bv, berr := bare.Get(k)
					if (cerr == nil) != (berr == nil) || !errors.Is(cerr, berr) && cerr != nil && !errors.Is(cerr, ErrNotFound) {
						t.Fatalf("step %d: Get(%q) err diverged: cached %v, bare %v", step, k, cerr, berr)
					}
					if !bytes.Equal(cv, bv) {
						t.Fatalf("step %d: Get(%q) diverged: cached %d bytes, bare %d", step, k, len(cv), len(bv))
					}
				case 3: // Delete
					if err := cached.Delete(k); err != nil {
						t.Fatalf("step %d: cached Delete: %v", step, err)
					}
					if err := bare.Delete(k); err != nil {
						t.Fatalf("step %d: bare Delete: %v", step, err)
					}
				case 4: // Size + Keys
					cn, cerr := cached.Size(k)
					bn, berr := bare.Size(k)
					if (cerr == nil) != (berr == nil) || cn != bn {
						t.Fatalf("step %d: Size(%q) diverged: cached (%d, %v), bare (%d, %v)", step, k, cn, cerr, bn, berr)
					}
					ck, err := cached.Keys("")
					if err != nil {
						t.Fatalf("step %d: cached Keys: %v", step, err)
					}
					bk, err := bare.Keys("")
					if err != nil {
						t.Fatalf("step %d: bare Keys: %v", step, err)
					}
					if fmt.Sprint(ck) != fmt.Sprint(bk) {
						t.Fatalf("step %d: Keys diverged: cached %v, bare %v", step, ck, bk)
					}
				}
			}
			// Full final sweep.
			for _, k := range keys {
				cv, cerr := cached.Get(k)
				bv, berr := bare.Get(k)
				if (cerr == nil) != (berr == nil) || !bytes.Equal(cv, bv) {
					t.Fatalf("final: Get(%q) diverged", k)
				}
			}
		})
	}
}

// TestCacheDifferentialConcurrent runs a mutator thread against reader
// threads under -race: every read must return a value that was written for
// that key at some point — never a torn or resurrected one. A version byte
// tags each written value so readers can validate without locking.
func TestCacheDifferentialConcurrent(t *testing.T) {
	cached := NewCacheStore(NewMemStore(), 4<<10)
	keys := []string{"w/0", "w/1", "w/2", "w/3"}
	// deleted[v] tracks nothing — instead every value embeds its key index
	// and a version; readers check self-consistency of what they get.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 16)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				ki := rng.Intn(len(keys))
				val, err := cached.Get(keys[ki])
				if err != nil {
					if errors.Is(err, ErrNotFound) {
						continue // racing a Delete; absence is a valid state
					}
					errs <- fmt.Errorf("Get(%s): %w", keys[ki], err)
					return
				}
				if len(val) < 2 || val[0] != byte(ki) {
					errs <- fmt.Errorf("Get(%s): value tagged for key %d", keys[ki], val[0])
					return
				}
				for _, b := range val[2:] {
					if b != val[1] {
						errs <- fmt.Errorf("Get(%s): torn value (version %d, fill %d)", keys[ki], val[1], b)
						return
					}
				}
			}
		}(g)
	}
	rng := rand.New(rand.NewSource(99))
	for step := 0; step < 3000; step++ {
		ki := rng.Intn(len(keys))
		if rng.Intn(10) == 0 {
			if err := cached.Delete(keys[ki]); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			continue
		}
		version := byte(step)
		val := append([]byte{byte(ki), version}, bytes.Repeat([]byte{version}, rng.Intn(100))...)
		if err := cached.Put(keys[ki], val); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestCacheCounters pins the metric semantics: misses then hits on repeat
// reads, and evictions under a budget smaller than the working set.
func TestCacheCounters(t *testing.T) {
	// The process-global registry starts disabled; install a fresh enabled
	// one before the CacheStore captures its instruments.
	r := obs.NewRegistry()
	prev := obs.SetDefault(r)
	t.Cleanup(func() { obs.SetDefault(prev) })
	hits0 := r.Counter("diskio.cache.hits").Value()
	misses0 := r.Counter("diskio.cache.misses").Value()
	evict0 := r.Counter("diskio.cache.evictions").Value()

	// Budget fits exactly two of the four 100-byte values.
	c := NewCacheStore(NewMemStore(), 200)
	val := bytes.Repeat([]byte("v"), 100)
	for i := 0; i < 4; i++ {
		if err := c.Put(fmt.Sprintf("k%d", i), val); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if n := c.CachedLen(); n != 2 {
		t.Fatalf("CachedLen = %d, want 2 (budget holds two values)", n)
	}
	if got := r.Counter("diskio.cache.evictions").Value() - evict0; got != 2 {
		t.Fatalf("evictions = %d, want 2", got)
	}
	// k3 (and k2) resident: hits. k0: evicted, a miss that refills.
	if _, err := c.Get("k3"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("k3"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("k0"); err != nil {
		t.Fatal(err)
	}
	if got := r.Counter("diskio.cache.hits").Value() - hits0; got != 2 {
		t.Fatalf("hits = %d, want 2", got)
	}
	if got := r.Counter("diskio.cache.misses").Value() - misses0; got != 1 {
		t.Fatalf("misses = %d, want 1", got)
	}
	// The k0 miss refilled it, evicting the LRU entry (k2).
	if got := r.Counter("diskio.cache.evictions").Value() - evict0; got != 3 {
		t.Fatalf("evictions after refill = %d, want 3", got)
	}
	if b := c.CachedBytes(); b != 200 {
		t.Fatalf("CachedBytes = %d, want 200", b)
	}
}

// TestCacheHitsSkipInnerReads pins the point of the cache: repeated Gets of
// a resident key perform no inner-store I/O.
func TestCacheHitsSkipInnerReads(t *testing.T) {
	inner := NewMemStore()
	c := NewCacheStore(inner, 1<<20)
	if err := c.Put("hot", bytes.Repeat([]byte("h"), 512)); err != nil {
		t.Fatal(err)
	}
	inner.ResetStats()
	for i := 0; i < 10; i++ {
		if _, err := c.Get("hot"); err != nil {
			t.Fatal(err)
		}
	}
	if st := inner.Stats(); st.Reads != 0 {
		t.Fatalf("inner store saw %d reads for a resident key, want 0", st.Reads)
	}
}

// TestCacheOversizeValueNotCached pins that a value larger than the whole
// budget bypasses the cache (and drops any stale resident copy).
func TestCacheOversizeValueNotCached(t *testing.T) {
	c := NewCacheStore(NewMemStore(), 100)
	if err := c.Put("k", []byte("small")); err != nil {
		t.Fatal(err)
	}
	if n := c.CachedLen(); n != 1 {
		t.Fatalf("CachedLen = %d, want 1", n)
	}
	big := bytes.Repeat([]byte("B"), 500)
	if err := c.Put("k", big); err != nil {
		t.Fatal(err)
	}
	if n := c.CachedLen(); n != 0 {
		t.Fatalf("CachedLen after oversize overwrite = %d, want 0", n)
	}
	got, err := c.Get("k")
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("Get after oversize overwrite: %v (len %d)", err, len(got))
	}
}

// hookStore wraps a Store with callbacks fired around inner mutations, used
// to pin deterministic interleavings of the cache coherence races.
type hookStore struct {
	Store
	beforeDelete func()
	afterPut     func()
}

func (h *hookStore) Delete(key string) error {
	if h.beforeDelete != nil {
		h.beforeDelete()
	}
	return h.Store.Delete(key)
}

func (h *hookStore) Put(key string, data []byte) error {
	err := h.Store.Put(key, data)
	if h.afterPut != nil {
		h.afterPut()
	}
	return err
}

// TestCacheDeleteNoResurrection pins the Delete coherence guarantee: a
// read-miss fill racing a Delete must not resurrect the deleted value. The
// inner delete is hooked so a Get re-fills the cache exactly in the window
// where the value is still present in the inner store; the invalidation
// after the inner delete must drop that fill.
func TestCacheDeleteNoResurrection(t *testing.T) {
	inner := &hookStore{Store: NewMemStore()}
	c := NewCacheStore(inner, 1<<20)
	if err := c.Put("k", []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	c.Purge() // force the racing Get below to miss and fill from inner
	inner.beforeDelete = func() {
		if v, err := c.Get("k"); err != nil || !bytes.Equal(v, []byte("doomed")) {
			t.Errorf("racing Get before inner delete: %q, %v", v, err)
		}
	}
	if err := c.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted key served after racing re-fill: err = %v, want ErrNotFound", err)
	}
}

// TestCachePutRefreshNotStale pins the generation-guarded Put refresh: when
// two Puts to one key race such that the first writer's cache refresh runs
// last, that refresh must drop the key rather than publish, since the inner
// store holds the second writer's value.
func TestCachePutRefreshNotStale(t *testing.T) {
	inner := &hookStore{Store: NewMemStore()}
	c := NewCacheStore(inner, 1<<20)
	innerDone := make(chan struct{})
	release := make(chan struct{})
	firstDone := make(chan struct{})
	inner.afterPut = func() {
		inner.afterPut = nil // gate only the first Put
		close(innerDone)
		<-release
	}
	go func() {
		defer close(firstDone)
		if err := c.Put("k", []byte("stale")); err != nil {
			t.Errorf("first Put: %v", err)
		}
	}()
	<-innerDone
	if err := c.Put("k", []byte("fresh")); err != nil { // inner + refresh complete
		t.Fatal(err)
	}
	close(release) // the first Put's refresh now runs last and must abandon
	<-firstDone
	got, err := c.Get("k")
	if err != nil || !bytes.Equal(got, []byte("fresh")) {
		t.Fatalf("Get after racing refresh = %q, %v; want %q (the inner store's value)", got, err, "fresh")
	}
}

// TestCacheDisabledBudget pins that maxBytes <= 0 disables caching even for
// zero-length values, which the size comparison alone would retain.
func TestCacheDisabledBudget(t *testing.T) {
	c := NewCacheStore(NewMemStore(), 0)
	if err := c.Put("k", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("k"); err != nil {
		t.Fatal(err)
	}
	if n := c.CachedLen(); n != 0 {
		t.Fatalf("CachedLen with disabled cache = %d, want 0", n)
	}
}

// TestCacheScrubInvalidates pins that a Scrub through the cache drops
// quarantined keys from memory: a corrupt value must not stay readable from
// the cache after the checksum layer moved it aside on disk.
func TestCacheScrubInvalidates(t *testing.T) {
	raw := NewMemStore()
	cs := NewChecksumStore(raw)
	c := NewCacheStore(cs, 1<<20)
	if err := c.Put("victim", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("victim"); err != nil { // now resident
		t.Fatal(err)
	}
	// Corrupt beneath the frame: flip a payload byte in the raw store.
	framed, err := raw.Get("victim")
	if err != nil {
		t.Fatal(err)
	}
	framed[len(framed)-1] ^= 0xff
	if err := raw.Put("victim", framed); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Scrub("")
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0] != "victim" {
		t.Fatalf("Scrub quarantined %v, want [victim]", rep.Quarantined)
	}
	if _, err := c.Get("victim"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after quarantine served from cache: err = %v, want ErrNotFound", err)
	}
}
