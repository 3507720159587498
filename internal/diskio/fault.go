package diskio

import (
	"errors"
	"sync/atomic"
)

// ErrInjected is the error FaultStore returns when a fault fires.
var ErrInjected = errors.New("diskio: injected fault")

// Op names a Store operation for fault targeting.
type Op string

// The operation types FaultStore distinguishes.
const (
	OpPut    Op = "put"
	OpGet    Op = "get"
	OpSize   Op = "size"
	OpDelete Op = "delete"
	OpKeys   Op = "keys"
	OpApply  Op = "apply"
)

// FaultStore wraps a Store and fails operations on demand — the repository's
// failure-injection harness. Faults fire when:
//
//   - the operation countdown reaches zero (FailAfter, one-shot), or
//   - the countdown reaches zero in crash mode (CrashAfter): the store
//     "dies" and every subsequent operation fails too, modelling a process
//     crash rather than a single flaky call, or
//   - the key matches FailKey (key-addressed operations, and any key of an
//     Apply batch), or
//   - the operation matches FailOp — Keys passes its prefix here under
//     OpKeys, so prefix scans can be targeted without conflating the prefix
//     with a key.
//
// A firing Put with TornWrite set persists half of the data to the inner
// store before failing — a torn write, exactly what a power cut mid-write
// leaves on disk.
//
// All faults default to never firing. FaultStore is safe for concurrent use
// to the extent the wrapped store is.
type FaultStore struct {
	// Inner is the wrapped store.
	Inner Store
	// FailKey, when non-nil, makes any key-addressed operation on a
	// matching key fail. Keys (a prefix scan) does not consult it.
	FailKey func(key string) bool
	// FailOp, when non-nil, makes any matching operation fail. For OpKeys
	// the second argument is the scan prefix, not a key.
	FailOp func(op Op, key string) bool
	// TornWrite makes a firing Put persist the first half of the data
	// before failing, simulating a write torn by a crash.
	TornWrite bool

	remaining atomic.Int64 // -1 = disabled
	armed     atomic.Bool
	crash     atomic.Bool // countdown firing kills the store permanently
	dead      atomic.Bool
	ops       atomic.Int64
}

// NewFaultStore wraps inner with faults disabled.
func NewFaultStore(inner Store) *FaultStore {
	f := &FaultStore{Inner: inner}
	f.remaining.Store(-1)
	return f
}

// Unwrap returns the wrapped store.
func (f *FaultStore) Unwrap() Store {
	return f.Inner
}

// FailAfter arms the countdown: the n+1-th subsequent operation fails (n=0
// fails the next one). Each firing disarms the countdown.
func (f *FaultStore) FailAfter(n int) {
	f.crash.Store(false)
	f.remaining.Store(int64(n))
	f.armed.Store(true)
}

// CrashAfter arms the countdown in crash mode: the n+1-th subsequent
// operation fails and the store dies — every operation after it fails too;
// a restart wraps the inner store in a fresh FaultStore. Combined with
// TornWrite, the crashing operation (if a Put) leaves a torn value behind,
// exactly once.
func (f *FaultStore) CrashAfter(n int) {
	f.crash.Store(true)
	f.remaining.Store(int64(n))
	f.armed.Store(true)
}

// Dead reports whether a crash-mode countdown has fired.
func (f *FaultStore) Dead() bool { return f.dead.Load() }

// Ops returns the total number of operations observed (faulted or not) —
// the coordinate system of a crash-at-every-op sweep.
func (f *FaultStore) Ops() int64 { return f.ops.Load() }

// fault decides whether this operation fires. The second result reports
// whether the firing is "fresh" (the instant of the fault, as opposed to an
// operation on an already-dead store) — only a fresh firing tears a write.
func (f *FaultStore) fault(op Op, key string) (fire, fresh bool) {
	f.ops.Add(1)
	if f.dead.Load() {
		return true, false
	}
	if op != OpKeys && op != OpApply && f.FailKey != nil && f.FailKey(key) {
		return true, true
	}
	if f.FailOp != nil && f.FailOp(op, key) {
		return true, true
	}
	if f.armed.Load() {
		// Fire for exactly the decrement that crosses zero: under concurrent
		// use several operations may decrement past the trigger, but only one
		// observes -1, so an armed countdown fires exactly once.
		if f.remaining.Add(-1) == -1 {
			f.armed.Store(false)
			if f.crash.Load() {
				f.dead.Store(true)
			}
			return true, true
		}
	}
	return false, false
}

// Put implements Store.
func (f *FaultStore) Put(key string, data []byte) error {
	if fire, fresh := f.fault(OpPut, key); fire {
		if fresh && f.TornWrite && len(data) > 0 {
			// The torn prefix reaches the device; the caller sees a failure.
			_ = f.Inner.Put(key, data[:len(data)/2])
		}
		return ErrInjected
	}
	return f.Inner.Put(key, data)
}

// CanApply reports whether the wrapped store batches; see AsBatcher.
func (f *FaultStore) CanApply() bool { return canApply(f.Inner) }

// Apply implements Batcher over a batching store. It is one operation of
// the countdown, passed to FailOp under OpApply with an empty key; FailKey
// is asked about every key of the batch. A batch is atomic, so a firing
// Apply persists nothing, TornWrite or not.
func (f *FaultStore) Apply(puts []KV, dels []string) error {
	b, ok := AsBatcher(f.Inner)
	if !ok {
		return errNoBatch(f.Inner)
	}
	fire, _ := f.fault(OpApply, "")
	if f.FailKey != nil {
		for _, kv := range puts {
			fire = fire || f.FailKey(kv.Key)
		}
		for _, k := range dels {
			fire = fire || f.FailKey(k)
		}
	}
	if fire {
		return ErrInjected
	}
	return b.Apply(puts, dels)
}

// Get implements Store.
func (f *FaultStore) Get(key string) ([]byte, error) {
	if fire, _ := f.fault(OpGet, key); fire {
		return nil, ErrInjected
	}
	return f.Inner.Get(key)
}

// Size implements Store.
func (f *FaultStore) Size(key string) (int64, error) {
	if fire, _ := f.fault(OpSize, key); fire {
		return 0, ErrInjected
	}
	return f.Inner.Size(key)
}

// Delete implements Store.
func (f *FaultStore) Delete(key string) error {
	if fire, _ := f.fault(OpDelete, key); fire {
		return ErrInjected
	}
	return f.Inner.Delete(key)
}

// Keys implements Store. The prefix is passed to FailOp under OpKeys; it is
// not matched against FailKey, which takes keys, not prefixes.
func (f *FaultStore) Keys(prefix string) ([]string, error) {
	if fire, _ := f.fault(OpKeys, prefix); fire {
		return nil, ErrInjected
	}
	return f.Inner.Keys(prefix)
}

// Stats implements Store.
func (f *FaultStore) Stats() Stats { return f.Inner.Stats() }

// ResetStats implements Store.
func (f *FaultStore) ResetStats() { f.Inner.ResetStats() }
