package diskio

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/demon-mining/demon/internal/obs"
)

// Atomic commit. A transaction is buffered in memory and reaches the store
// only at its outermost Commit, through one of two sinks chosen by what the
// store is:
//
//   - a store with the atomic-batch capability (AsBatcher) takes the whole
//     buffer in one Apply — the store's own commit point;
//   - any other store takes a redo journal first,
//
//     staging/<id>/journal     framed puts (key, value) and deletes
//
//     whose Put is the commit point, then reads it back and applies it to
//     the final keys, then deletes it: N+3 store operations for N keys.
//
// A crash before the journal is complete leaves a torn or absent journal,
// which Recover discards; a crash after it leaves a journal that verifies,
// which Recover applies again (applying is idempotent) and deletes.
// Ingestion through a TxnStore is therefore all-or-nothing either way.

// StagingPrefix is the key prefix the journal lives under. Nothing outside
// the transaction machinery writes here.
const StagingPrefix = "staging/"

// ErrLegacyStaging is returned by Recover for a store holding a committed
// transaction in the staged-copy layout this package wrote before it
// journaled (staging/<id>/manifest next to staging/<id>/data/<key>).
var ErrLegacyStaging = errors.New("diskio: committed transaction in the pre-journal staged-copy layout")

// TxnStore wraps a Store with transactions. Outside a transaction it is a
// transparent proxy. Between Begin and Commit, Puts and Deletes are buffered
// in memory and reads observe the buffer, so multi-key updates commit or
// roll back as a unit and a rollback touches no store. Begin/Commit/Rollback
// must come from a single goroutine (miners are not concurrent-safe), but
// reads through an active transaction may be issued from many goroutines, as
// the parallel counters do.
type TxnStore struct {
	inner Store
	batch Batcher // the capability of the store as handed over; nil selects the journal

	mu    sync.RWMutex
	depth int               // nesting depth; inner Begins join the outer txn
	seq   int               // id counter
	puts  map[string][]byte // buffered values by final key
	order []string          // put keys in first-write order (commit order); may repeat a key
	dels  map[string]bool   // keys deleted by this txn

	// sc is the request span context captured by BeginCtx, so the outermost
	// Commit's span lands in the trace of the request that opened the txn.
	sc obs.SpanContext
}

// NewTxnStore wraps inner. The commit sink follows from inner itself, never
// from what inner wraps: a decorator without Apply sees every operation.
func NewTxnStore(inner Store) *TxnStore {
	s := &TxnStore{inner: inner}
	s.batch, _ = AsBatcher(inner)
	return s
}

// Unwrap returns the wrapped store.
func (s *TxnStore) Unwrap() Store { return s.inner }

func journalKey(id string) string { return StagingPrefix + id + "/journal" }

// Begin starts a transaction. A Begin inside an active transaction joins
// it: only the outermost Commit applies the writes, so a routine that is
// itself transactional (Checkpoint) can be called both standalone and from
// within a larger transaction (AddBlock).
func (s *TxnStore) Begin() { s.BeginCtx(context.Background()) }

// BeginCtx is Begin carrying a request context: when ctx belongs to a
// sampled trace (obs.SpanContextFrom), the outermost Commit records its span
// into that trace. An inner Begin never re-parents the transaction.
func (s *TxnStore) BeginCtx(ctx context.Context) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.depth++
	if s.depth > 1 {
		return
	}
	s.seq++
	s.puts = make(map[string][]byte)
	s.dels = make(map[string]bool)
	s.sc = obs.SpanContextFrom(ctx)
}

// InTxn reports whether a transaction is active.
func (s *TxnStore) InTxn() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.depth > 0
}

// Rollback aborts the whole active transaction (regardless of nesting
// depth) by dropping the buffer. Calling it with no active transaction is a
// no-op, so it is safe in defer-on-error paths.
func (s *TxnStore) Rollback() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.depth == 0 {
		return
	}
	s.reset()
	obs.Default().Counter("diskio.txn.rollback").Inc()
}

// reset clears transaction state; callers hold s.mu.
func (s *TxnStore) reset() {
	s.depth = 0
	s.puts = nil
	s.order = nil
	s.dels = nil
	s.sc = obs.SpanContext{}
}

// Commit hands the buffer to the store's sink. An inner (nested) Commit just
// decrements the depth. If Commit returns an error the transaction may be
// durable all the same — a journal that was written is rolled forward by
// Recover on the next open, and a batching store may fail after its own
// commit point — so callers must not assume a failed Commit means a
// rolled-back transaction; they should discard in-memory state and restore.
func (s *TxnStore) Commit() error {
	s.mu.Lock()
	if s.depth == 0 {
		s.mu.Unlock()
		return errors.New("diskio: Commit without Begin")
	}
	if s.depth > 1 {
		s.depth--
		s.mu.Unlock()
		return nil
	}
	id, sc := fmt.Sprintf("txn-%06d", s.seq), s.sc
	puts := make([]KV, 0, len(s.puts))
	payload := 0
	for _, key := range s.order {
		if val, ok := s.puts[key]; ok {
			puts = append(puts, KV{Key: key, Value: val})
			payload += len(val)
			delete(s.puts, key) // a key deleted and put again is in order twice
		}
	}
	dels := make([]string, 0, len(s.dels))
	for k := range s.dels {
		dels = append(dels, k)
	}
	sort.Strings(dels)
	s.reset()
	s.mu.Unlock()

	reg := obs.Default()
	span := reg.Timer("diskio.txn.commit.ns").StartSpan(sc)
	defer span.End()

	if len(puts)+len(dels) == 0 {
		return nil
	}
	if s.batch != nil {
		if err := s.batch.Apply(puts, dels); err != nil {
			return fmt.Errorf("diskio: txn %s: %w", id, err)
		}
	} else {
		if err := s.commitJournaled(id, puts, dels); err != nil {
			return fmt.Errorf("diskio: txn %s: %w", id, err)
		}
		reg.Counter("diskio.txn.journal").Inc()
	}
	reg.Counter("diskio.txn.apply.keys").Add(int64(len(puts) + len(dels)))
	reg.Counter("diskio.txn.apply.bytes").Add(int64(payload))
	reg.Counter("diskio.txn.commit").Inc()
	return nil
}

// commitJournaled is the sink for stores without an atomic batch. The
// journal is framed so a torn journal write is detectable even when the
// store does not checksum values. It is then applied as read back from the
// store, by the routine Recover uses: what a commit does and what recovery
// would do after a crash cannot differ, and a store that cannot return the
// journal it acknowledged fails the commit before any final key is touched.
func (s *TxnStore) commitJournaled(id string, puts []KV, dels []string) error {
	jkey := journalKey(id)
	err := s.inner.Put(jkey, Frame(encodeJournal(puts, dels)))
	if err == nil {
		var applied bool
		if applied, err = replay(s.inner, id); applied || err != nil {
			return err
		}
		err = errors.New("journal does not read back")
	}
	// Not committed. Best-effort: on a dying store the delete fails too, and
	// Recover decides by whether the journal verifies.
	_ = s.inner.Delete(jkey)
	return fmt.Errorf("writing journal: %w", err)
}

// replay completes transaction id from its journal: if the journal verifies
// it is applied to the final keys — doing so twice leaves the same store —
// and deleted. A journal that is absent or fails verification is an
// uncommitted transaction, not an error: nothing is applied.
func replay(s Store, id string) (applied bool, err error) {
	jkey := journalKey(id)
	var puts []KV
	var dels []string
	raw, err := s.Get(jkey)
	if err == nil {
		raw, err = Unframe(raw)
	}
	if err == nil {
		puts, dels, err = decodeJournal(raw)
	}
	if errors.Is(err, ErrNotFound) || errors.Is(err, ErrCorrupt) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	for _, kv := range puts {
		if err := s.Put(kv.Key, kv.Value); err != nil {
			return false, fmt.Errorf("applying %s: %w", kv.Key, err)
		}
	}
	for _, key := range dels {
		if err := s.Delete(key); err != nil {
			return false, fmt.Errorf("deleting %s: %w", key, err)
		}
	}
	if err := s.Delete(jkey); err != nil {
		return false, fmt.Errorf("removing journal: %w", err)
	}
	return true, nil
}

// Put implements Store. Inside a transaction the write is buffered.
func (s *TxnStore) Put(key string, data []byte) error {
	s.mu.Lock()
	if s.depth == 0 {
		s.mu.Unlock()
		return s.inner.Put(key, data)
	}
	defer s.mu.Unlock()
	if err := checkKey(key); err != nil {
		return err
	}
	if strings.HasPrefix(key, StagingPrefix) {
		return fmt.Errorf("diskio: key %q under reserved prefix %q", key, StagingPrefix)
	}
	if _, ok := s.puts[key]; !ok {
		s.order = append(s.order, key)
	}
	s.puts[key] = append(make([]byte, 0, len(data)), data...)
	delete(s.dels, key)
	return nil
}

// buffered looks key up in the active transaction: its buffered value,
// whether the transaction deleted it, or neither (read the store). Buffered
// values are never modified in place, so they can be read after the unlock.
func (s *TxnStore) buffered(key string) (val []byte, deleted bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.depth == 0 {
		return nil, false
	}
	return s.puts[key], s.dels[key]
}

// Get implements Store, observing the writes of the active transaction.
func (s *TxnStore) Get(key string) ([]byte, error) {
	val, deleted := s.buffered(key)
	switch {
	case val != nil:
		return append(make([]byte, 0, len(val)), val...), nil
	case deleted:
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return s.inner.Get(key)
}

// Size implements Store, observing the writes of the active transaction.
func (s *TxnStore) Size(key string) (int64, error) {
	val, deleted := s.buffered(key)
	switch {
	case val != nil:
		return int64(len(val)), nil
	case deleted:
		return 0, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return s.inner.Size(key)
}

// Delete implements Store. Inside a transaction the delete is deferred to
// commit time.
func (s *TxnStore) Delete(key string) error {
	s.mu.Lock()
	if s.depth == 0 {
		s.mu.Unlock()
		return s.inner.Delete(key)
	}
	defer s.mu.Unlock()
	delete(s.puts, key)
	s.dels[key] = true
	return nil
}

// Keys implements Store, merging the buffer over the committed state and
// hiding the staging key space.
func (s *TxnStore) Keys(prefix string) ([]string, error) {
	s.mu.RLock()
	if s.depth == 0 {
		s.mu.RUnlock()
		return s.inner.Keys(prefix)
	}
	seen := make(map[string]bool, len(s.puts)+len(s.dels))
	var out []string
	for k := range s.puts {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
		seen[k] = true
	}
	for k := range s.dels {
		seen[k] = true
	}
	s.mu.RUnlock()

	inner, err := s.inner.Keys(prefix)
	if err != nil {
		return nil, err
	}
	for _, k := range inner {
		if !seen[k] && !strings.HasPrefix(k, StagingPrefix) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out, nil
}

// Stats implements Store.
func (s *TxnStore) Stats() Stats { return s.inner.Stats() }

// ResetStats implements Store.
func (s *TxnStore) ResetStats() { s.inner.ResetStats() }

// encodeJournal serializes a transaction: the puts with their values, then
// the deleted keys, every string and value length-prefixed.
func encodeJournal(puts []KV, dels []string) []byte {
	n := 2 * binary.MaxVarintLen64
	for _, kv := range puts {
		n += 2*binary.MaxVarintLen64 + len(kv.Key) + len(kv.Value)
	}
	for _, k := range dels {
		n += binary.MaxVarintLen64 + len(k)
	}
	buf := AppendUvarint(make([]byte, 0, n), uint64(len(puts)))
	for _, kv := range puts {
		buf = appendBytes(appendBytes(buf, kv.Key), kv.Value)
	}
	buf = AppendUvarint(buf, uint64(len(dels)))
	for _, k := range dels {
		buf = appendBytes(buf, k)
	}
	return buf
}

func appendBytes[T string | []byte](buf []byte, b T) []byte {
	return append(AppendUvarint(buf, uint64(len(b))), b...)
}

// readBytes decodes one length-prefixed string; the result aliases buf.
func readBytes(buf []byte) (b, rest []byte, err error) {
	n, buf, err := ReadUvarint(buf)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(buf)) {
		return nil, nil, fmt.Errorf("%w: truncated journal entry", ErrCorrupt)
	}
	return buf[:n], buf[n:], nil
}

func decodeJournal(buf []byte) (puts []KV, dels []string, err error) {
	n, buf, err := ReadUvarint(buf)
	if err != nil {
		return nil, nil, err
	}
	for ; n > 0; n-- {
		var key, val []byte
		if key, buf, err = readBytes(buf); err != nil {
			return nil, nil, err
		}
		if val, buf, err = readBytes(buf); err != nil {
			return nil, nil, err
		}
		puts = append(puts, KV{Key: string(key), Value: val})
	}
	if n, buf, err = ReadUvarint(buf); err != nil {
		return nil, nil, err
	}
	for ; n > 0; n-- {
		var key []byte
		if key, buf, err = readBytes(buf); err != nil {
			return nil, nil, err
		}
		dels = append(dels, string(key))
	}
	if len(buf) != 0 {
		return nil, nil, fmt.Errorf("%w: %d trailing journal bytes", ErrCorrupt, len(buf))
	}
	return puts, dels, nil
}

// RecoveryReport describes what Recover found and did.
type RecoveryReport struct {
	// RolledForward lists transaction ids whose journal verified: their
	// writes were applied (again) to completion.
	RolledForward []string
	// RolledBack lists transaction ids whose journal was torn, or that left
	// only manifest-less debris of the staged-copy layout: discarded.
	RolledBack []string
}

// Clean reports whether recovery had nothing to do.
func (r *RecoveryReport) Clean() bool {
	return len(r.RolledForward) == 0 && len(r.RolledBack) == 0
}

// Recover restores the invariants of the journal sink after a crash:
// transactions whose journal verifies are rolled forward, everything else
// under StagingPrefix is crash debris carrying no committed data and is
// deleted — except a manifest of the staged-copy layout, which marks a
// transaction this code cannot complete: Recover then fails with
// ErrLegacyStaging and touches nothing of it. Stores that commit through
// Apply never have anything here. Recover must run before new transactions
// are started on the store; the miners call it when they open or restore.
func Recover(s Store) (*RecoveryReport, error) {
	keys, err := s.Keys(StagingPrefix)
	if err != nil {
		return nil, fmt.Errorf("diskio: recover: %w", err)
	}
	rep := &RecoveryReport{}
	byTxn := make(map[string][]string)
	var ids []string
	for _, k := range keys {
		id, rest, _ := strings.Cut(strings.TrimPrefix(k, StagingPrefix), "/")
		if rest == "manifest" {
			return rep, fmt.Errorf("%w: %s; recover the store with the release that wrote it", ErrLegacyStaging, k)
		}
		if _, seen := byTxn[id]; !seen {
			ids = append(ids, id)
		}
		byTxn[id] = append(byTxn[id], k)
	}
	for _, id := range ids {
		applied, err := replay(s, id)
		if err != nil {
			return rep, fmt.Errorf("diskio: recover txn %s: %w", id, err)
		}
		if applied {
			rep.RolledForward = append(rep.RolledForward, id)
		} else {
			rep.RolledBack = append(rep.RolledBack, id)
		}
		for _, k := range byTxn[id] {
			if applied && k == journalKey(id) {
				continue
			}
			if err := s.Delete(k); err != nil {
				return rep, fmt.Errorf("diskio: recover txn %s: cleanup %s: %w", id, k, err)
			}
		}
	}
	if !rep.Clean() {
		obs.Default().Counter("diskio.txn.recovered").Add(int64(len(ids)))
	}
	return rep, nil
}
