package diskio

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
)

func dumpStore(t *testing.T, s Store) map[string]string {
	t.Helper()
	out, err := Dump(s)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestTxnStorePassthroughOutsideTxn(t *testing.T) {
	s := NewTxnStore(NewMemStore())
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get("k"); err != nil || string(got) != "v" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if n, err := s.Size("k"); err != nil || n != 1 {
		t.Fatalf("Size = %d, %v", n, err)
	}
	if err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted key err = %v", err)
	}
}

// plain hides every optional capability of the store it embeds — Apply in
// particular — so a TxnStore over it commits through the journal.
type plain struct{ Store }

// sinks runs a test once per commit sink: wrap turns the MemStore a test
// inspects into the store its TxnStore is handed.
func sinks(t *testing.T, run func(t *testing.T, wrap func(Store) Store)) {
	t.Run("apply", func(t *testing.T) { run(t, func(s Store) Store { return s }) })
	t.Run("journal", func(t *testing.T) { run(t, func(s Store) Store { return plain{s} }) })
}

func TestTxnCommitIsAtomicAndClean(t *testing.T) { sinks(t, testTxnCommitIsAtomicAndClean) }

func testTxnCommitIsAtomicAndClean(t *testing.T, wrap func(Store) Store) {
	base := NewMemStore()
	s := NewTxnStore(wrap(base))

	s.Begin()
	if err := s.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", []byte("2")); err != nil {
		t.Fatal(err)
	}
	// Reads inside the txn observe the buffer; the base store does not.
	if got, _ := s.Get("a"); string(got) != "1" {
		t.Fatal("txn read missed buffered write")
	}
	if n, err := s.Size("b"); err != nil || n != 1 {
		t.Fatalf("txn Size = %d, %v", n, err)
	}
	if _, err := base.Get("a"); !errors.Is(err, ErrNotFound) {
		t.Fatal("buffered write reached the store before commit")
	}
	keys, err := s.Keys("")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(keys) != "[a b]" {
		t.Fatalf("txn Keys = %v", keys)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	got := dumpStore(t, base)
	if len(got) != 2 || got["a"] != "1" || got["b"] != "2" {
		t.Fatalf("post-commit store = %v", got)
	}
}

func TestTxnRollbackLeavesNoTrace(t *testing.T) {
	base := NewMemStore()
	fault := NewFaultStore(base)
	s := NewTxnStore(fault)
	if err := s.Put("keep", []byte("old")); err != nil {
		t.Fatal(err)
	}
	fault.ResetOps()

	s.Begin()
	if err := s.Put("keep", []byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("fresh", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("keep"); err != nil {
		t.Fatal(err)
	}
	s.Rollback()

	if n := fault.Ops(); n != 0 {
		t.Fatalf("a rolled-back transaction issued %d store operations, want none", n)
	}
	got := dumpStore(t, base)
	if len(got) != 1 || got["keep"] != "old" {
		t.Fatalf("post-rollback store = %v", got)
	}
	// Rollback with no txn active is a no-op.
	s.Rollback()
}

func TestTxnDeleteSemantics(t *testing.T) { sinks(t, testTxnDeleteSemantics) }

func testTxnDeleteSemantics(t *testing.T, wrap func(Store) Store) {
	base := NewMemStore()
	s := NewTxnStore(wrap(base))
	if err := s.Put("old", []byte("v")); err != nil {
		t.Fatal(err)
	}
	s.Begin()
	if err := s.Delete("old"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("old"); !errors.Is(err, ErrNotFound) {
		t.Fatal("txn read saw deleted key")
	}
	if _, err := s.Size("old"); !errors.Is(err, ErrNotFound) {
		t.Fatal("txn Size saw deleted key")
	}
	// The delete is deferred: the base still has it until commit.
	if _, err := base.Get("old"); err != nil {
		t.Fatal("deferred delete applied early")
	}
	// Put after Delete resurrects the key.
	if err := s.Put("old", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if got, err := base.Get("old"); err != nil || string(got) != "v2" {
		t.Fatalf("resurrected key = %q, %v", got, err)
	}

	s.Begin()
	if err := s.Put("tmp", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("tmp"); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := base.Get("tmp"); !errors.Is(err, ErrNotFound) {
		t.Fatal("put-then-delete key survived commit")
	}
}

func TestTxnNestedBeginJoins(t *testing.T) {
	base := NewMemStore()
	s := NewTxnStore(base)
	s.Begin()
	if err := s.Put("outer", []byte("1")); err != nil {
		t.Fatal(err)
	}
	s.Begin() // joins
	if err := s.Put("inner", []byte("2")); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil { // inner commit: no effect yet
		t.Fatal(err)
	}
	if _, err := base.Get("inner"); !errors.Is(err, ErrNotFound) {
		t.Fatal("inner commit applied before outer")
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	got := dumpStore(t, base)
	if len(got) != 2 {
		t.Fatalf("post-commit store = %v", got)
	}
}

func TestTxnCommitWithoutBegin(t *testing.T) {
	s := NewTxnStore(NewMemStore())
	if err := s.Commit(); err == nil {
		t.Fatal("Commit without Begin succeeded")
	}
}

// opLog records the operations a TxnStore issues against a store that has
// no Apply.
type opLog struct {
	Store
	ops []string
}

func (l *opLog) Put(key string, data []byte) error {
	l.ops = append(l.ops, "put "+key)
	return l.Store.Put(key, data)
}

func (l *opLog) Get(key string) ([]byte, error) {
	l.ops = append(l.ops, "get "+key)
	return l.Store.Get(key)
}

func (l *opLog) Delete(key string) error {
	l.ops = append(l.ops, "delete "+key)
	return l.Store.Delete(key)
}

// Unwrap leads to a Batcher, which the TxnStore must not go looking for.
func (l *opLog) Unwrap() Store { return l.Store }

// TestTxnJournalSinkOps pins the journal protocol: the journal Put, its
// read-back, one operation per key, the journal Delete — N+3 operations —
// and nothing left under staging/.
func TestTxnJournalSinkOps(t *testing.T) {
	base := NewMemStore()
	if err := base.Put("old", []byte("x")); err != nil {
		t.Fatal(err)
	}
	log := &opLog{Store: base}
	s := NewTxnStore(log)
	s.Begin()
	for _, k := range []string{"b", "a"} {
		if err := s.Put(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete("old"); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	want := "[put staging/txn-000001/journal get staging/txn-000001/journal put b put a delete old delete staging/txn-000001/journal]"
	if got := fmt.Sprint(log.ops); got != want {
		t.Fatalf("journal sink issued %s\nwant %s", got, want)
	}
	if got := dumpStore(t, base); len(got) != 2 || got["a"] != "a" || got["b"] != "b" {
		t.Fatalf("post-commit store = %v", got)
	}
}

// TestTxnApplySinkIsOneOperation pins the other sink: a store that batches
// sees the whole transaction as a single Apply.
func TestTxnApplySinkIsOneOperation(t *testing.T) {
	base := NewMemStore()
	fault := NewFaultStore(base)
	s := NewTxnStore(NewChecksumStore(NewRetryStore(fault)))
	s.Begin()
	for i := 0; i < 100; i++ {
		if err := s.Put(fmt.Sprintf("k/%03d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := fault.Ops(); n != 1 {
		t.Fatalf("commit issued %d store operations, want one Apply", n)
	}
	if st := base.Stats(); st.Writes != 100 {
		t.Fatalf("Writes = %d, want one per key", st.Writes)
	}
}

// crashStack builds base → fault(torn, crash) → checksum → txn, the full
// durability sandwich the miners run on in the fault sweep. hide puts the
// capability-hiding wrapper under the fault store, which selects the
// journal sink.
func crashStack(hide bool) (*MemStore, *FaultStore, *TxnStore) {
	base := NewMemStore()
	var under Store = base
	if hide {
		under = plain{base}
	}
	fault := NewFaultStore(under)
	fault.TornWrite = true
	return base, fault, NewTxnStore(NewChecksumStore(fault))
}

// TestTxnCrashSweep commits a transaction of three puts and a delete while
// crashing at every operation index, on both sinks; after Recover, the store
// must hold either none or all of the transaction's effects — never a
// subset — and nothing under staging/.
func TestTxnCrashSweep(t *testing.T) {
	for _, hide := range []bool{false, true} {
		seed := func(base *MemStore) {
			if err := NewChecksumStore(base).Put("x/0", []byte("doomed")); err != nil {
				t.Fatal(err)
			}
		}
		doTxn := func(s *TxnStore) error {
			s.Begin()
			for i, k := range []string{"x/1", "x/2", "x/3"} {
				if err := s.Put(k, bytes.Repeat([]byte{byte('a' + i)}, 64)); err != nil {
					s.Rollback()
					return err
				}
			}
			if err := s.Delete("x/0"); err != nil {
				s.Rollback()
				return err
			}
			return s.Commit()
		}
		base, fault, s := crashStack(hide)
		seed(base)
		before := dumpStore(t, base)
		if err := doTxn(s); err != nil {
			t.Fatal(err)
		}
		total := int(fault.Ops())
		if wantOps := map[bool]int{false: 1, true: 7}[hide]; total != wantOps {
			t.Fatalf("hide=%v: commit issued %d operations, want %d", hide, total, wantOps)
		}
		after := dumpStore(t, base)

		for k := 0; k < total; k++ {
			base, fault, s := crashStack(hide)
			seed(base)
			fault.CrashAfter(k)
			if err := doTxn(s); err == nil {
				t.Fatalf("hide=%v: crash at op %d/%d did not surface", hide, k, total)
			}
			// "Restart": recover through a clean stack over the same device.
			clean := NewChecksumStore(base)
			rep, err := Recover(clean)
			if err != nil {
				t.Fatalf("hide=%v: crash at op %d: recover: %v", hide, k, err)
			}
			got := dumpStore(t, base)
			if fmt.Sprint(got) != fmt.Sprint(before) && fmt.Sprint(got) != fmt.Sprint(after) {
				t.Fatalf("hide=%v: crash at op %d: store is neither rolled back nor forward (report %+v): %v",
					hide, k, rep, got)
			}
			// Recovery is idempotent.
			if rep2, err := Recover(clean); err != nil || !rep2.Clean() {
				t.Fatalf("hide=%v: crash at op %d: second recover = %+v, %v", hide, k, rep2, err)
			}
		}
	}
}

// journaled leaves behind what a crash right after the journal Put leaves:
// a complete journal and a store it has not been applied to.
func journaled(t *testing.T) *MemStore {
	t.Helper()
	base, fault, s := crashStack(true)
	if err := NewChecksumStore(base).Put("gone", []byte("x")); err != nil {
		t.Fatal(err)
	}
	s.Begin()
	if err := s.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("gone"); err != nil {
		t.Fatal(err)
	}
	fault.CrashAfter(2) // the journal is written and read back, the first apply dies
	if err := s.Commit(); err == nil {
		t.Fatal("Commit survived the crash")
	}
	return base
}

func TestRecoverRollsCompleteJournalForward(t *testing.T) {
	base := journaled(t)
	clean := NewChecksumStore(base)
	rep, err := Recover(clean)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.RolledForward) != 1 || len(rep.RolledBack) != 0 {
		t.Fatalf("report = %+v", rep)
	}
	got := dumpStore(t, clean)
	if len(got) != 1 || got["a"] != "1" {
		t.Fatalf("rolled-forward store = %v", got)
	}
}

// A crash between the last apply and the journal Delete leaves the journal
// next to a fully applied store; rolling it forward again changes nothing.
func TestRecoverIsIdempotentOverAnAppliedJournal(t *testing.T) {
	base := journaled(t)
	clean := NewChecksumStore(base)
	jkey := journalKey("txn-000001")
	journal, err := clean.Get(jkey)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(clean); err != nil {
		t.Fatal(err)
	}
	want := dumpStore(t, base)
	if err := clean.Put(jkey, journal); err != nil {
		t.Fatal(err)
	}
	rep, err := Recover(clean)
	if err != nil || len(rep.RolledForward) != 1 {
		t.Fatalf("second roll-forward = %+v, %v", rep, err)
	}
	if got := dumpStore(t, base); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("second roll-forward changed the store: %v, want %v", got, want)
	}
}

func TestRecoverRollsTornJournalBack(t *testing.T) {
	base := journaled(t)
	jkey := journalKey("txn-000001")
	raw, err := base.Get(jkey)
	if err != nil {
		t.Fatal(err)
	}
	before := dumpStore(t, base)
	delete(before, jkey)
	for cut := 0; cut < len(raw); cut++ {
		if err := base.Put(jkey, raw[:cut]); err != nil {
			t.Fatal(err)
		}
		rep, err := Recover(NewChecksumStore(base))
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if len(rep.RolledBack) != 1 || len(rep.RolledForward) != 0 {
			t.Fatalf("cut at %d: report = %+v", cut, rep)
		}
		if got := dumpStore(t, base); fmt.Sprint(got) != fmt.Sprint(before) {
			t.Fatalf("cut at %d: store = %v, want %v", cut, got, before)
		}
	}
}

// TestRecoverLegacyStaging: the staged-copy layout of earlier releases. A
// manifest marks a transaction that may be committed, which this code cannot
// complete, so Recover must refuse — and touch nothing, its own debris
// included; staged copies without a manifest never were committed and are
// deleted as they always were.
func TestRecoverLegacyStaging(t *testing.T) {
	base := NewMemStore()
	for _, k := range []string{"staging/txn-000003/data/tid/1", "staging/txn-000003/data/blocks/1"} {
		if err := base.Put(k, []byte("staged")); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := Recover(base)
	if err != nil || len(rep.RolledBack) != 1 {
		t.Fatalf("manifest-less debris: report = %+v, %v", rep, err)
	}
	if got := dumpStore(t, base); len(got) != 0 {
		t.Fatalf("manifest-less debris survived: %v", got)
	}

	for _, k := range []string{"staging/txn-000001/journal", "staging/txn-000004/data/tid/1", "staging/txn-000004/manifest"} {
		if err := base.Put(k, []byte("staged")); err != nil {
			t.Fatal(err)
		}
	}
	before := dumpStore(t, base)
	_, err = Recover(base)
	if !errors.Is(err, ErrLegacyStaging) || !strings.Contains(err.Error(), "staging/txn-000004/manifest") {
		t.Fatalf("Recover over a manifest = %v, want ErrLegacyStaging naming the key", err)
	}
	if got := dumpStore(t, base); fmt.Sprint(got) != fmt.Sprint(before) {
		t.Fatalf("Recover changed a store it refused: %v", got)
	}
}

func TestJournalCodecRejectsDamage(t *testing.T) {
	puts := []KV{{"a", []byte("1")}, {"empty", nil}, {"b/c", bytes.Repeat([]byte{0xff}, 300)}}
	dels := []string{"x", "y/z"}
	enc := encodeJournal(puts, dels)
	gotPuts, gotDels, err := decodeJournal(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotPuts) != len(puts) || fmt.Sprint(gotDels) != fmt.Sprint(dels) {
		t.Fatalf("decoded %d puts, dels %v", len(gotPuts), gotDels)
	}
	for i, kv := range gotPuts {
		if kv.Key != puts[i].Key || !bytes.Equal(kv.Value, puts[i].Value) {
			t.Fatalf("put %d = %q, want %q", i, kv.Key, puts[i].Key)
		}
	}
	for cut := 0; cut < len(enc); cut++ {
		if _, _, err := decodeJournal(enc[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("journal cut at %d decoded: %v", cut, err)
		}
	}
	if _, _, err := decodeJournal(append(enc, 0)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing byte accepted: %v", err)
	}
}

// FuzzDecodeJournal: arbitrary bytes through the frame check and the journal
// decoder end in an error or in a transaction that survives a re-encode
// unchanged, never in a panic, and never in more entries than the payload has
// bytes — a count varint of 2^60 allocates nothing on its own say-so. Input
// that fails the frame check is decoded bare, so mutations reach the decoder
// behind the CRC.
func FuzzDecodeJournal(f *testing.F) {
	real := Frame(encodeJournal(
		[]KV{{"a", []byte("1")}, {"empty", nil}, {"b/c", bytes.Repeat([]byte{0xff}, 300)}},
		[]string{"x", "y/z"}))
	f.Add(real)
	f.Add(real[:len(real)-7])
	f.Add(Frame(real[frameHeaderLen : len(real)-7]))
	f.Add(Frame(append(encodeJournal([]KV{{"k", []byte("v")}}, nil), 0)))
	f.Add(Frame(AppendUvarint(nil, 1<<60)))
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := Unframe(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped frame error: %v", err)
			}
			payload = data
		}
		puts, dels, err := decodeJournal(payload)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if n := len(puts) + len(dels); n > len(payload) {
			t.Fatalf("%d entries from %d bytes", n, len(payload))
		}
		puts2, dels2, err := decodeJournal(encodeJournal(puts, dels))
		if err != nil {
			t.Fatalf("re-encoded journal does not decode: %v", err)
		}
		same := len(puts2) == len(puts) && fmt.Sprint(dels2) == fmt.Sprint(dels)
		for i := 0; same && i < len(puts); i++ {
			same = puts2[i].Key == puts[i].Key && bytes.Equal(puts2[i].Value, puts[i].Value)
		}
		if !same {
			t.Fatalf("round trip changed the transaction:\n in %q %q\nout %q %q", puts, dels, puts2, dels2)
		}
	})
}

func TestTxnKeysHidesStaging(t *testing.T) {
	base := NewMemStore()
	if err := base.Put(journalKey("txn-000009"), []byte("debris")); err != nil {
		t.Fatal(err)
	}
	s := NewTxnStore(base)
	s.Begin()
	if err := s.Put("data/k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	keys, err := s.Keys("")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(keys) != "[data/k]" {
		t.Fatalf("Keys = %v, want [data/k]", keys)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
}

// A key some backend cannot store must fail at Put, on every backend: past
// the commit point it would fail the apply, and every recovery after it.
func TestTxnRejectsReservedPrefixAndUnportableKeys(t *testing.T) {
	s := NewTxnStore(NewMemStore())
	s.Begin()
	defer s.Rollback()
	if err := s.Put(StagingPrefix+"sneaky", nil); err == nil {
		t.Fatal("write under staging/ accepted inside a txn")
	}
	for _, key := range []string{"", "a//b", "../up", "a/./b", "sp ace", "tid/1:2", "trailing/"} {
		if err := s.Put(key, nil); err == nil {
			t.Errorf("key %q accepted inside a txn", key)
		}
	}
}
