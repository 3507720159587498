package diskio

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestFaultStoreDisabledPassesThrough(t *testing.T) {
	f := NewFaultStore(NewMemStore())
	if err := f.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	got, err := f.Get("k")
	if err != nil || string(got) != "v" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if n, err := f.Size("k"); err != nil || n != 1 {
		t.Fatalf("Size = %d, %v", n, err)
	}
	keys, err := f.Keys("")
	if err != nil || len(keys) != 1 {
		t.Fatalf("Keys = %v, %v", keys, err)
	}
	if err := f.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if f.Stats().Writes != 1 {
		t.Fatalf("Stats = %+v", f.Stats())
	}
	f.ResetStats()
	if f.Stats().Writes != 0 {
		t.Fatal("ResetStats did not reset")
	}
}

func TestFaultStoreCountdown(t *testing.T) {
	f := NewFaultStore(NewMemStore())
	f.FailAfter(2)
	if err := f.Put("a", nil); err != nil {
		t.Fatalf("op 1: %v", err)
	}
	if err := f.Put("b", nil); err != nil {
		t.Fatalf("op 2: %v", err)
	}
	if err := f.Put("c", nil); !errors.Is(err, ErrInjected) {
		t.Fatalf("op 3 err = %v, want injected", err)
	}
	// Countdown disarms after firing.
	if err := f.Put("d", nil); err != nil {
		t.Fatalf("op 4: %v", err)
	}
	f.FailAfter(0)
	if _, err := f.Get("a"); !errors.Is(err, ErrInjected) {
		t.Fatalf("FailAfter(0) err = %v", err)
	}
	f.FailAfter(5)
	f.DisarmCountdown()
	for i := 0; i < 10; i++ {
		if err := f.Put("x", nil); err != nil {
			t.Fatalf("disarmed op %d: %v", i, err)
		}
	}
}

func TestFaultStoreKeyPredicate(t *testing.T) {
	f := NewFaultStore(NewMemStore())
	f.FailKey = func(key string) bool { return strings.HasPrefix(key, "tid/") }
	if err := f.Put("txblock/1", nil); err != nil {
		t.Fatal(err)
	}
	if err := f.Put("tid/1/i1", nil); !errors.Is(err, ErrInjected) {
		t.Fatalf("tid put err = %v", err)
	}
	if _, err := f.Get("tid/1/i1"); !errors.Is(err, ErrInjected) {
		t.Fatalf("tid get err = %v", err)
	}
	if _, err := f.Size("tid/1/i1"); !errors.Is(err, ErrInjected) {
		t.Fatalf("tid size err = %v", err)
	}
	if err := f.Delete("tid/1/i1"); !errors.Is(err, ErrInjected) {
		t.Fatalf("tid delete err = %v", err)
	}
	// Keys is a prefix scan, not a key-addressed operation: FailKey must not
	// be conflated with the prefix. Targeting scans is FailOp's job.
	if _, err := f.Keys("tid/"); err != nil {
		t.Fatalf("Keys consulted FailKey with a prefix: %v", err)
	}
}

func TestFaultStoreFailOp(t *testing.T) {
	f := NewFaultStore(NewMemStore())
	f.FailOp = func(op Op, key string) bool { return op == OpKeys && strings.HasPrefix("tid/", key) }
	if err := f.Put("tid/1/i1", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Keys("tid/"); !errors.Is(err, ErrInjected) {
		t.Fatalf("targeted Keys err = %v, want injected", err)
	}
	if _, err := f.Get("tid/1/i1"); err != nil {
		t.Fatalf("untargeted Get failed: %v", err)
	}

	f.FailOp = func(op Op, key string) bool { return op == OpDelete }
	if err := f.Delete("tid/1/i1"); !errors.Is(err, ErrInjected) {
		t.Fatalf("targeted Delete err = %v, want injected", err)
	}
	if _, err := f.Get("tid/1/i1"); err != nil {
		t.Fatalf("untargeted Get failed: %v", err)
	}
}

func TestFaultStoreProbabilistic(t *testing.T) {
	f := NewFaultStore(NewMemStore())
	f.PFail = 0.5
	f.Rand = rand.New(rand.NewSource(7))
	fired := 0
	for i := 0; i < 200; i++ {
		if err := f.Put("k", nil); errors.Is(err, ErrInjected) {
			fired++
		}
	}
	if fired < 60 || fired > 140 {
		t.Fatalf("PFail=0.5 fired %d/200 times", fired)
	}
	// Reproducible under the same seed.
	f2 := NewFaultStore(NewMemStore())
	f2.PFail = 0.5
	f2.Rand = rand.New(rand.NewSource(7))
	fired2 := 0
	for i := 0; i < 200; i++ {
		if err := f2.Put("k", nil); errors.Is(err, ErrInjected) {
			fired2++
		}
	}
	if fired2 != fired {
		t.Fatalf("same seed fired %d vs %d times", fired2, fired)
	}
}

func TestFaultStoreCrashMode(t *testing.T) {
	inner := NewMemStore()
	f := NewFaultStore(inner)
	f.CrashAfter(2)
	if err := f.Put("a", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := f.Put("b", []byte("y")); err != nil {
		t.Fatal(err)
	}
	if err := f.Put("c", []byte("z")); !errors.Is(err, ErrInjected) {
		t.Fatalf("crash op err = %v", err)
	}
	if !f.Dead() {
		t.Fatal("store not dead after crash")
	}
	// Everything after the crash fails: the process is gone.
	for i := 0; i < 5; i++ {
		if _, err := f.Get("a"); !errors.Is(err, ErrInjected) {
			t.Fatalf("post-crash Get err = %v", err)
		}
		if err := f.Delete("a"); !errors.Is(err, ErrInjected) {
			t.Fatalf("post-crash Delete err = %v", err)
		}
	}
	f.Revive()
	if _, err := f.Get("a"); err != nil {
		t.Fatalf("post-revive Get err = %v", err)
	}
	if got := f.Ops(); got == 0 {
		t.Fatal("op counter not advancing")
	}
}

func TestFaultStoreTornWrite(t *testing.T) {
	inner := NewMemStore()
	f := NewFaultStore(inner)
	f.TornWrite = true
	f.CrashAfter(0)
	data := []byte("0123456789abcdef")
	if err := f.Put("k", data); !errors.Is(err, ErrInjected) {
		t.Fatalf("torn Put err = %v", err)
	}
	got, err := inner.Get("k")
	if err != nil {
		t.Fatalf("torn write persisted nothing: %v", err)
	}
	if len(got) == 0 || len(got) >= len(data) {
		t.Fatalf("torn write persisted %d of %d bytes", len(got), len(data))
	}
	if string(got) != string(data[:len(got)]) {
		t.Fatal("torn write is not a prefix of the data")
	}
	// Post-crash Puts must not touch the device again.
	if err := f.Put("k2", data); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-crash Put err = %v", err)
	}
	if _, err := inner.Get("k2"); !errors.Is(err, ErrNotFound) {
		t.Fatal("dead store persisted a second torn write")
	}
}

func TestFaultStoreTransientClassification(t *testing.T) {
	f := NewFaultStore(NewMemStore())
	f.Transient = true
	f.FailAfter(0)
	err := f.Put("k", nil)
	if !errors.Is(err, ErrInjected) || !IsTransient(err) {
		t.Fatalf("transient injected err = %v", err)
	}
	f.Transient = false
	f.FailAfter(0)
	err = f.Put("k", nil)
	if !errors.Is(err, ErrInjected) || IsTransient(err) {
		t.Fatalf("permanent injected err = %v", err)
	}
}

// TestFaultStoreConcurrentCountdownFiresOnce hammers an armed countdown from
// many goroutines: however the decrements interleave, exactly one operation
// must observe the injected fault per armed countdown.
func TestFaultStoreConcurrentCountdownFiresOnce(t *testing.T) {
	const workers = 8
	const opsPerWorker = 200

	for round := 0; round < 20; round++ {
		f := NewFaultStore(NewMemStore())
		f.FailAfter(round * 17 % (workers * opsPerWorker / 2)) // vary the trigger point

		var fired atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				key := fmt.Sprintf("w%d", w)
				for i := 0; i < opsPerWorker; i++ {
					if err := f.Put(key, nil); errors.Is(err, ErrInjected) {
						fired.Add(1)
					}
				}
			}(w)
		}
		wg.Wait()

		if got := fired.Load(); got != 1 {
			t.Fatalf("round %d: countdown fired %d times, want exactly 1", round, got)
		}
		// The store is quiescent and disarmed; more traffic stays clean.
		for i := 0; i < 10; i++ {
			if err := f.Put("after", nil); err != nil {
				t.Fatalf("post-fire op %d: %v", i, err)
			}
		}
	}
}

// TestFaultStoreConcurrentDisarm races DisarmCountdown against operations:
// the countdown may fire at most once, and never after a disarm completes
// with no further arm.
func TestFaultStoreConcurrentDisarm(t *testing.T) {
	const workers = 8
	for round := 0; round < 50; round++ {
		f := NewFaultStore(NewMemStore())
		f.FailAfter(workers * 2)

		var fired atomic.Int64
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				for i := 0; i < 10; i++ {
					if _, err := f.Get("k"); errors.Is(err, ErrInjected) {
						fired.Add(1)
					}
				}
			}(w)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			f.DisarmCountdown()
		}()
		close(start)
		wg.Wait()

		if got := fired.Load(); got > 1 {
			t.Fatalf("round %d: countdown fired %d times despite disarm race, want <= 1", round, got)
		}
		for i := 0; i < 10; i++ {
			if _, err := f.Get("k"); err != nil && !errors.Is(err, ErrNotFound) {
				t.Fatalf("post-disarm op %d: %v", i, err)
			}
		}
	}
}

// TestFaultStoreRearm: arming again after a firing restores the exactly-once
// guarantee for the new countdown.
func TestFaultStoreRearm(t *testing.T) {
	f := NewFaultStore(NewMemStore())
	for arm := 0; arm < 5; arm++ {
		f.FailAfter(3)
		var fired int
		for i := 0; i < 10; i++ {
			if err := f.Put("k", nil); errors.Is(err, ErrInjected) {
				fired++
			}
		}
		if fired != 1 {
			t.Fatalf("arm %d: fired %d times, want 1", arm, fired)
		}
	}
}

// TestFaultStoreApply: a batch is one operation of the countdown, FailOp
// sees it as OpApply, FailKey is asked about each of its keys, and a batch
// that fires reaches the inner store not at all — TornWrite or not.
func TestFaultStoreApply(t *testing.T) {
	base := NewMemStore()
	f := NewFaultStore(base)
	f.TornWrite = true
	puts := []KV{{"tid/1", []byte("abcdef")}, {"tid/2", []byte("ghijkl")}}
	mustApply := func() {
		t.Helper()
		if err := f.Apply(puts, []string{"old"}); err != nil {
			t.Fatalf("Apply: %v", err)
		}
	}
	mustFire := func(why string) {
		t.Helper()
		if err := f.Apply(puts, []string{"old"}); !errors.Is(err, ErrInjected) {
			t.Fatalf("%s: Apply err = %v, want injected", why, err)
		}
		if keys, _ := base.Keys(""); len(keys) != 0 {
			t.Fatalf("%s: a failed Apply left %v behind", why, keys)
		}
	}

	f.FailOp = func(op Op, key string) bool { return op == OpApply }
	mustFire("FailOp")
	f.FailOp = nil

	f.FailKey = func(key string) bool { return key == "tid/2" }
	mustFire("FailKey on a put")
	f.FailKey = func(key string) bool { return key == "old" }
	mustFire("FailKey on a delete")
	f.FailKey = nil

	f.ResetOps()
	f.CrashAfter(0)
	mustFire("crash before")
	f.Revive()
	if f.Ops() != 1 {
		t.Fatalf("one Apply counted as %d operations", f.Ops())
	}
	f.CrashAfter(1) // the Apply lands, the operation after it dies
	mustApply()
	if _, err := f.Get("tid/1"); !errors.Is(err, ErrInjected) {
		t.Fatalf("Get after the crash = %v, want injected", err)
	}
	if got, err := base.Get("tid/2"); err != nil || string(got) != "ghijkl" {
		t.Fatalf("the Apply before the crash did not land: %q, %v", got, err)
	}
}

// TestBatchCapabilityFollowsTheWrappedStore: every decorator is a Batcher
// exactly when what it wraps is one, and says so instead of half-applying
// when asked anyway.
func TestBatchCapabilityFollowsTheWrappedStore(t *testing.T) {
	fs, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for name, wrap := range map[string]func(Store) Store{
		"checksum": func(s Store) Store { return NewChecksumStore(s) },
		"retry":    func(s Store) Store { return NewRetryStore(s) },
		"cache":    func(s Store) Store { return NewCacheStore(s, 1<<10) },
		"fault":    func(s Store) Store { return NewFaultStore(s) },
		"stack":    func(s Store) Store { return NewCacheStore(NewChecksumStore(NewRetryStore(NewFaultStore(s))), 1<<10) },
	} {
		if _, ok := AsBatcher(wrap(NewMemStore())); !ok {
			t.Errorf("%s over MemStore lost the capability", name)
		}
		for inner, s := range map[string]Store{"FileStore": fs, "a wrapper without Apply": plain{NewMemStore()}} {
			d := wrap(s)
			if _, ok := AsBatcher(d); ok {
				t.Errorf("%s over %s claims an atomic batch", name, inner)
			}
			if err := d.(Batcher).Apply([]KV{{"a", nil}, {"b", nil}}, nil); err == nil {
				t.Errorf("%s over %s applied a batch it cannot make atomic", name, inner)
			}
			if keys, _ := s.Keys(""); len(keys) != 0 {
				t.Errorf("%s over %s wrote %v", name, inner, keys)
			}
		}
	}
	if _, ok := AsBatcher(plain{NewMemStore()}); ok {
		t.Error("AsBatcher looked through a wrapper")
	}
}
