package durable

// The Shell's contract, tested on the Shell itself: until now it was only
// exercised through the four models of the root package. A recording store
// and recording callbacks make the order of a step observable.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/demon-mining/demon/internal/blockseq"
	"github.com/demon-mining/demon/internal/diskio"
	"github.com/demon-mining/demon/internal/obs"
)

var errBoom = errors.New("boom")

// recorder is a mem store that logs what reaches it: the recovery scan, the
// read of a position record, and each committed batch with its keys. It
// commits through Apply, so one event is one transaction.
type recorder struct {
	*diskio.MemStore
	events     []string
	failCommit bool
	failGet    bool
}

func newRecorder() *recorder { return &recorder{MemStore: diskio.NewMemStore()} }

func (r *recorder) log(format string, args ...any) {
	r.events = append(r.events, fmt.Sprintf(format, args...))
}

func (r *recorder) Keys(prefix string) ([]string, error) {
	if prefix == diskio.StagingPrefix {
		r.log("recover")
	}
	return r.MemStore.Keys(prefix)
}

func (r *recorder) Get(key string) ([]byte, error) {
	r.log("get %s", key)
	if r.failGet {
		return nil, errBoom
	}
	return r.MemStore.Get(key)
}

func (r *recorder) Apply(puts []diskio.KV, dels []string) error {
	keys := make([]string, len(puts))
	for i, kv := range puts {
		keys[i] = kv.Key
	}
	r.log("commit %s", strings.Join(keys, " "))
	if r.failCommit {
		return errBoom
	}
	return r.MemStore.Apply(puts, dels)
}

// has reports whether key has reached the store itself — not just a
// transaction's buffer.
func (r *recorder) has(key string) bool {
	_, err := r.MemStore.Get(key)
	return err == nil
}

// holds reports whether the store itself holds exactly val under key.
func (r *recorder) holds(key, val string) bool {
	got, err := r.MemStore.Get(key)
	return err == nil && string(got) == val
}

// harness is a Shell over a recorder whose callbacks log themselves, write
// one key each through the transactional view, and fail on request.
type harness struct {
	t      *testing.T
	rec    *recorder
	sh     *Shell
	failAt string // "apply", "save" or "hook"
	calls  int
}

func newHarness(t *testing.T, every int) *harness {
	t.Helper()
	h := &harness{t: t, rec: newRecorder()}
	sh, err := New(Config{
		Store:           h.rec,
		CheckpointEvery: every,
		Hook: func(store diskio.Store, id blockseq.ID) error {
			return h.call("hook", store, fmt.Sprintf("hook/%d", id))
		},
		Save: func(store diskio.Store, t blockseq.ID) error { return h.call("save", store, "model/meta") },
	})
	if err != nil {
		t.Fatal(err)
	}
	h.sh = sh
	return h
}

// call is one callback: log, write key into the open transaction — which
// must not reach the store before the commit — and fail if asked to.
func (h *harness) call(name string, store diskio.Store, key string) error {
	h.rec.log("%s", name)
	h.calls++
	val := fmt.Sprintf("%s#%d", name, h.calls)
	if err := store.Put(key, []byte(val)); err != nil {
		h.t.Fatal(err)
	}
	if h.rec.holds(key, val) {
		h.t.Errorf("%s wrote %s outside the step's transaction", name, key)
	}
	if h.failAt == name {
		return errBoom
	}
	return nil
}

func (h *harness) step() error {
	return h.sh.Step(context.Background(), obs.Default().Timer("test.step.ns"), func(_ context.Context, id blockseq.ID) error {
		return h.call("apply", h.sh.Store(), fmt.Sprintf("block/%d", id))
	})
}

// events returns and clears what was recorded since the last call.
func (h *harness) events() []string {
	ev := h.rec.events
	h.rec.events = nil
	return ev
}

func (h *harness) position(wantT, wantCkpt blockseq.ID) {
	h.t.Helper()
	if t, c := h.sh.T(), h.sh.CheckpointT(); t != wantT || c != wantCkpt {
		h.t.Errorf("T = %d, CheckpointT = %d; want %d, %d", t, c, wantT, wantCkpt)
	}
}

// TestStepOrder: begin → apply → save when due → hook → commit, one
// transaction per block, the position advancing only after the commit.
func TestStepOrder(t *testing.T) {
	h := newHarness(t, 2)
	if ev := h.events(); !reflect.DeepEqual(ev, []string{"recover"}) {
		t.Errorf("New: %v, want the store recovered first", ev)
	}

	if err := h.step(); err != nil {
		t.Fatal(err)
	}
	if ev, want := h.events(), []string{"apply", "hook", "commit block/1 hook/1"}; !reflect.DeepEqual(ev, want) {
		t.Errorf("block 1: %v, want %v", ev, want)
	}
	h.position(1, 0)

	if err := h.step(); err != nil {
		t.Fatal(err)
	}
	if ev, want := h.events(), []string{"apply", "save", "hook", "commit block/2 model/meta hook/2"}; !reflect.DeepEqual(ev, want) {
		t.Errorf("block 2 (checkpoint due): %v, want %v", ev, want)
	}
	h.position(2, 2)

	if err := h.step(); err != nil {
		t.Fatal(err)
	}
	h.position(3, 2)
	h.events()
	if err := h.sh.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if ev, want := h.events(), []string{"save", "commit model/meta"}; !reflect.DeepEqual(ev, want) {
		t.Errorf("explicit checkpoint: %v, want %v", ev, want)
	}
	h.position(3, 3)
}

// TestStepFailureIsSticky: an error at any position of a step rolls the
// transaction back, leaves both positions where they were, and poisons the
// Shell — Step, Mutate and Checkpoint then fail with the original error and
// run no callback.
func TestStepFailureIsSticky(t *testing.T) {
	for _, at := range []string{"apply", "save", "hook", "commit"} {
		t.Run(at, func(t *testing.T) {
			h := newHarness(t, 1)
			if err := h.step(); err != nil {
				t.Fatal(err)
			}
			h.position(1, 1)

			h.failAt, h.rec.failCommit = at, at == "commit"
			if err := h.step(); !errors.Is(err, errBoom) {
				t.Fatalf("failing step: %v, want errBoom", err)
			}
			h.failAt, h.rec.failCommit = "", false
			h.position(1, 1)
			for _, key := range []string{"block/2", "hook/2"} {
				if h.rec.has(key) {
					t.Errorf("the failed step left %s in the store", key)
				}
			}
			if !h.rec.holds("model/meta", "save#2") { // block 1 ran apply#1, save#2, hook#3
				t.Error("the failed step replaced block 1's checkpoint")
			}
			if h.sh.io.InTxn() {
				t.Error("the failed step left its transaction open")
			}

			h.events()
			mutated := false
			for name, err := range map[string]error{
				"Step":       h.step(),
				"Mutate":     h.sh.Mutate(func() error { mutated = true; return nil }, func() error { mutated = true; return nil }),
				"Checkpoint": h.sh.Checkpoint(),
			} {
				if !errors.Is(err, errBoom) || !strings.Contains(err.Error(), "unusable") {
					t.Errorf("%s after the failure: %v, want the sticky error", name, err)
				}
			}
			if ev := h.events(); len(ev) != 0 || mutated {
				t.Errorf("a poisoned Shell still ran %v (mutated: %v)", ev, mutated)
			}
			h.position(1, 1)
		})
	}
}

// TestStorelessShell: a nil Store skips the transaction, the checkpoint and
// the hook — nothing else. Order, position rule and sticky failure hold.
func TestStorelessShell(t *testing.T) {
	called := ""
	sh, err := New(Config{
		CheckpointEvery: 1,
		Hook:            func(diskio.Store, blockseq.ID) error { called += "hook "; return nil },
		Save:            func(diskio.Store, blockseq.ID) error { called += "save "; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if sh.Store() != nil {
		t.Error("a storeless Shell hands out a store")
	}
	step := func(fail error) error {
		return sh.Step(context.Background(), nil, func(_ context.Context, id blockseq.ID) error {
			called += fmt.Sprintf("apply/%d ", id)
			return fail
		})
	}
	if err := step(nil); err != nil {
		t.Fatal(err)
	}
	if err := step(nil); err != nil {
		t.Fatal(err)
	}
	if called != "apply/1 apply/2 " || sh.T() != 2 || sh.CheckpointT() != 0 {
		t.Errorf("ran %q to T = %d, CheckpointT = %d; want two applies only, T = 2, CheckpointT = 0", called, sh.T(), sh.CheckpointT())
	}
	if err := sh.Checkpoint(); err == nil || errors.Is(err, errBoom) {
		t.Errorf("Checkpoint without a store: %v, want a plain error", err)
	}
	if err := step(nil); err != nil {
		t.Errorf("a refused checkpoint poisoned the Shell: %v", err)
	}
	if err := step(errBoom); !errors.Is(err, errBoom) {
		t.Fatal(err)
	}
	if err := step(nil); !errors.Is(err, errBoom) || sh.T() != 3 {
		t.Errorf("after a failed storeless step: %v at T = %d, want the sticky error at T = 3", err, sh.T())
	}
}

// TestMutate: a check error changes nothing and is forgotten; a mutate
// error may have half-updated the model and is sticky.
func TestMutate(t *testing.T) {
	h := newHarness(t, 0)
	ran := ""
	check := func(err error) func() error { return func() error { ran += "check "; return err } }
	mutate := func(err error) func() error { return func() error { ran += "mutate "; return err } }

	if err := h.sh.Mutate(check(nil), mutate(nil)); err != nil || ran != "check mutate " {
		t.Fatalf("Mutate = %v after %q", err, ran)
	}
	ran = ""
	if err := h.sh.Mutate(check(errBoom), mutate(nil)); !errors.Is(err, errBoom) || ran != "check " {
		t.Fatalf("refused Mutate = %v after %q, want errBoom after the check alone", err, ran)
	}
	if err := h.step(); err != nil {
		t.Fatalf("a refused mutation poisoned the Shell: %v", err)
	}
	if err := h.sh.Mutate(check(nil), mutate(errBoom)); !errors.Is(err, errBoom) {
		t.Fatal(err)
	}
	if err := h.step(); !errors.Is(err, errBoom) || !strings.Contains(err.Error(), "unusable") {
		t.Errorf("Step after a failed mutation: %v, want the sticky error", err)
	}
	h.position(1, 0)
}

// TestCheckpointFailure: an explicit checkpoint that fails before its commit
// writes nothing and moves nothing; the model is untouched, so the Shell
// stays usable. One whose commit fails makes the Shell unusable.
func TestCheckpointFailure(t *testing.T) {
	h := newHarness(t, 0)
	if err := h.step(); err != nil {
		t.Fatal(err)
	}
	h.failAt = "save"
	if err := h.sh.Checkpoint(); !errors.Is(err, errBoom) {
		t.Fatal(err)
	}
	h.failAt = ""
	h.position(1, 0)
	if h.rec.has("model/meta") || h.sh.io.InTxn() {
		t.Error("the failed checkpoint left a record or an open transaction")
	}
	if err := h.sh.Checkpoint(); err != nil {
		t.Fatalf("retry: %v", err)
	}
	h.position(1, 1)

	// A failed commit may be durable all the same (a journal that rolls
	// forward at the next open, over any later checkpoint), so it is sticky.
	h.rec.failCommit = true
	if err := h.sh.Checkpoint(); !errors.Is(err, errBoom) {
		t.Fatal(err)
	}
	h.rec.failCommit = false
	if err := h.sh.Checkpoint(); err == nil || !strings.Contains(err.Error(), "unusable") {
		t.Errorf("a checkpoint after a failed commit: %v, want the sticky error", err)
	}
}

// TestRestored: a Shell placed at a restored position continues from it.
func TestRestored(t *testing.T) {
	h := newHarness(t, 0)
	h.sh.Restored(7)
	h.position(7, 7)
	if err := h.step(); err != nil {
		t.Fatal(err)
	}
	h.position(8, 7)
	if !h.rec.has("block/8") {
		t.Error("the step after a restore is not block 8")
	}
}

// opened is a model as Open's callers build one: fresh makes its Shell
// through New over the store being opened, restore loads the record into it.
type opened struct{ state string }

func openModel(store diskio.Store, mustExist bool) (*opened, error) {
	return Open(store, "model", mustExist,
		func() (*opened, error) {
			_, err := New(Config{Store: store})
			return &opened{state: "fresh"}, err
		},
		func(m *opened, meta []byte) error {
			m.state = "restored " + string(meta)
			return nil
		})
}

// TestOpen covers the restore-or-fresh decision behind every Restore* and
// Resume*: the store is recovered before the position record is read — and
// scanned for that once per open, by the model's own New — an absent record
// means fresh only when that is allowed, and an unreadable one is never a
// fresh start.
func TestOpen(t *testing.T) {
	for _, tc := range []struct {
		name      string
		store     func() *recorder // nil: no store at all
		mustExist bool
		want      string // "" = error
		events    []string
	}{
		{name: "no store, optional", want: "fresh"},
		{name: "no store, must exist", mustExist: true},
		{name: "absent, optional", store: newRecorder, want: "fresh", events: []string{"recover", "get model/meta"}},
		{name: "absent, must exist", store: newRecorder, mustExist: true, events: []string{"recover", "get model/meta"}},
		{name: "present", store: func() *recorder {
			r := newRecorder()
			r.Put("model/meta", []byte("t=3"))
			return r
		}, mustExist: true, want: "restored t=3", events: []string{"recover", "get model/meta"}},
		{name: "unreadable, optional", store: func() *recorder {
			r := newRecorder()
			r.failGet = true
			return r
		}, events: []string{"recover", "get model/meta"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var store diskio.Store
			var rec *recorder
			if tc.store != nil {
				rec = tc.store()
				store = rec
			}
			got, err := openModel(store, tc.mustExist)
			if (err == nil) != (tc.want != "") || (err == nil && got.state != tc.want) || (err != nil && got != nil) {
				t.Errorf("Open = %+v, %v; want %q", got, err, tc.want)
			}
			if rec != nil && !reflect.DeepEqual(rec.events, tc.events) {
				t.Errorf("store saw %v, want %v", rec.events, tc.events)
			}
		})
	}
}

// TestOpenRollsForward: "recovers the store first" is not only an order of
// calls — a transaction whose journal reached a journaling store before the
// crash is completed, and the restore sees what it wrote.
func TestOpenRollsForward(t *testing.T) {
	// A store without Apply commits through the journal; the fault fires
	// right after the journal is written.
	mem := struct{ diskio.Store }{diskio.NewMemStore()}
	faulty := diskio.NewFaultStore(mem)
	txn := diskio.NewTxnStore(faulty)
	txn.Begin()
	if err := txn.Put("model/meta", []byte("t=9")); err != nil {
		t.Fatal(err)
	}
	faulty.FailAfter(1) // the journal's Put succeeds, the next operation fails
	if err := txn.Commit(); err == nil {
		t.Fatal("the injected fault did not fire")
	}
	if _, err := mem.Get("model/meta"); err == nil {
		t.Fatal("the interrupted commit already applied its write")
	}

	got, err := openModel(mem, true)
	if err != nil || got.state != "restored t=9" {
		t.Errorf("Open = %+v, %v; want the journaled record rolled forward", got, err)
	}
}
