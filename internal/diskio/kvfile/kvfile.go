// Package kvfile is a zero-dependency single-file key-value backend for
// diskio.Store: an append-only record log with CRC-32C-checked pages, an
// in-memory hash index rebuilt on open, fsync-batched commit through a
// dual-slot superblock, and log compaction that reclaims overwritten and
// deleted records. Open sizes the index by a header-only walk of the log
// before its verifying scan fills it; Keys sorts only the keys it returns.
//
// # File format
//
//	file       := superblock (record | batch)*
//	superblock := slot0 slot1                     (64 bytes total)
//	slot       := "DKV1" gen:u64 commit:u64 pad:u64 crc32c:u32  (32 bytes)
//	record     := entry crc32c:u32
//	batch      := 'B' bodyLen:uvarint entry* crc32c:u32
//	entry      := kind:u8 keyLen:uvarint [valLen:uvarint] key val
//
// kind is 'P' (put) or 'D' (delete; no valLen/val). Every record carries a
// CRC-32C over all its preceding bytes, so torn appends and bit rot are
// detected during the open-time scan instead of being served as data. A
// batch frame is what one Apply appends: bodyLen bytes of entries under a
// single CRC, written with one WriteAt, so the open-time scan replays all of
// it or, when it is a torn tail, none of it.
//
// # Commit protocol
//
// Appended records become committed when a superblock slot carrying the new
// log length (the commit offset) reaches disk: data is fsynced first, then
// the alternate slot is written with an incremented generation and fsynced.
// A crash between the two fsyncs leaves the previous slot valid, and the
// records past its commit offset are replayed on open if they verify — they
// were complete, checksummed appends that only missed their commit mark.
// A record that fails verification past the commit offset is crash debris
// (a torn tail) when it is truncated by end-of-file or followed only by
// zero bytes, and the log is truncated back to the last good record;
// anything else — including any verification failure before the commit
// offset — is reported as diskio.ErrCorrupt, never silently dropped.
//
// With Options.SyncEvery=1 (the default) every mutation runs the full
// commit sequence; larger values batch the two fsyncs over N mutations,
// trading a bounded window of acknowledged-but-uncommitted writes for
// far fewer device flushes. Sync and Close force the pending batch out. An
// Apply of n keys counts as n mutations, acknowledged like n single
// mutations would be: atomic always, committed once SyncEvery is reached —
// at the default, two fsyncs per Apply whatever its size.
//
// A failed fsync leaves the kernel free to drop the dirty pages it could not
// write, so a later fsync may succeed over bytes that never reached the
// disk. After any failed flush the handle therefore refuses every further
// mutation with ErrFailed until the file is reopened.
package kvfile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/demon-mining/demon/internal/diskio"
	"github.com/demon-mining/demon/internal/obs"
)

const (
	slotSize       = 32
	superblockSize = 2 * slotSize
	slotMagic      = "DKV1"

	kindPut    = 'P'
	kindDelete = 'D'
	kindBatch  = 'B'
)

// ErrClosed is returned by every operation on a closed store.
var ErrClosed = errors.New("kvfile: store is closed")

// ErrFailed is returned by every mutation after a flush of the store failed;
// what reached the disk is unknown until the file is reopened.
var ErrFailed = errors.New("kvfile: a flush failed, reopen the store")

// fsync flushes a file; a seam for tests that fail it.
var fsync = (*os.File).Sync

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Options tune a Store. The zero value selects the durable defaults.
type Options struct {
	// SyncEvery commits (data fsync + superblock fsync) every N mutations;
	// 0 or 1 means every mutation is individually durable before it is
	// acknowledged. Sync/Close flush a pending batch.
	SyncEvery int
	// CompactMinBytes is the log size below which compaction never triggers
	// (default 1 MiB). Lower it in tests to exercise compaction.
	CompactMinBytes int64
	// NoAutoCompact disables mutation-triggered compaction; Compact can
	// still be called explicitly.
	NoAutoCompact bool
}

func (o Options) withDefaults() Options {
	if o.SyncEvery < 1 {
		o.SyncEvery = 1
	}
	if o.CompactMinBytes <= 0 {
		o.CompactMinBytes = 1 << 20
	}
	return o
}

// entry locates a live key in the log.
type entry struct {
	valOff int64 // file offset of the value bytes
	valLen int
	recLen int64 // whole record length, for garbage accounting
}

// Store is a single-file diskio.Store. It is safe for concurrent use: any
// number of readers may run alongside one another; mutations serialize on an
// internal lock.
type Store struct {
	bytesRead    atomic.Int64
	bytesWritten atomic.Int64
	reads        atomic.Int64
	writes       atomic.Int64

	opts Options
	path string

	mu        sync.RWMutex
	f         *os.File
	closed    bool
	index     map[string]entry
	gen       uint64 // generation of the last written superblock slot
	commit    int64  // durable log length per the superblock
	dataEnd   int64  // log length including uncommitted appends
	liveBytes int64  // Σ recLen over the index (live records)
	pending   int    // mutations since the last commit
	failed    error  // sticky: wraps ErrFailed once a flush failed
}

// Open opens (creating if absent) the single-file store at path.
func Open(path string, opts Options) (*Store, error) {
	s := &Store{opts: opts.withDefaults(), path: path}
	// A leftover compaction temp file is pre-rename debris: the live file is
	// authoritative, the temp is incomplete by definition.
	_ = os.Remove(compactPath(path))

	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("kvfile: open %s: %w", path, err)
	}
	s.f = f
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("kvfile: open %s: %w", path, err)
	}
	if fi.Size() == 0 {
		if err := s.initEmpty(); err != nil {
			f.Close()
			return nil, err
		}
		return s, nil
	}
	if err := s.load(fi.Size()); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// initEmpty writes the superblock of a brand-new file and makes it durable.
func (s *Store) initEmpty() error {
	s.index = make(map[string]entry)
	s.gen = 1
	s.commit = superblockSize
	s.dataEnd = superblockSize
	zero := make([]byte, superblockSize)
	if _, err := s.f.WriteAt(zero, 0); err != nil {
		return fmt.Errorf("kvfile: init %s: %w", s.path, err)
	}
	if err := s.writeSlot(); err != nil {
		return err
	}
	if err := s.sync(s.f); err != nil {
		return err
	}
	return s.syncDir()
}

// encodeSlot serializes a superblock slot.
func encodeSlot(gen uint64, commit int64) []byte {
	buf := make([]byte, slotSize)
	copy(buf, slotMagic)
	binary.LittleEndian.PutUint64(buf[4:12], gen)
	binary.LittleEndian.PutUint64(buf[12:20], uint64(commit))
	binary.LittleEndian.PutUint32(buf[28:32], crc32.Checksum(buf[:28], crcTable))
	return buf
}

// decodeSlot validates one superblock slot.
func decodeSlot(buf []byte) (gen uint64, commit int64, ok bool) {
	if len(buf) < slotSize || string(buf[:4]) != slotMagic {
		return 0, 0, false
	}
	if crc32.Checksum(buf[:28], crcTable) != binary.LittleEndian.Uint32(buf[28:32]) {
		return 0, 0, false
	}
	return binary.LittleEndian.Uint64(buf[4:12]), int64(binary.LittleEndian.Uint64(buf[12:20])), true
}

// writeSlot persists the current (gen, commit) into the slot the generation
// selects. The caller is responsible for fsync ordering.
func (s *Store) writeSlot() error {
	off := int64(s.gen%2) * slotSize
	if _, err := s.f.WriteAt(encodeSlot(s.gen, s.commit), off); err != nil {
		return fmt.Errorf("kvfile: superblock %s: %w", s.path, err)
	}
	return nil
}

// load rebuilds the index from an existing file: superblock selection, a
// strict scan of the committed region, and torn-tail-tolerant replay of the
// region past the commit offset.
func (s *Store) load(size int64) error {
	data, err := os.ReadFile(s.path)
	if err != nil {
		return fmt.Errorf("kvfile: load %s: %w", s.path, err)
	}
	if int64(len(data)) < superblockSize {
		return fmt.Errorf("%w: kvfile %s: %d bytes, shorter than the superblock", diskio.ErrCorrupt, s.path, len(data))
	}
	gen0, commit0, ok0 := decodeSlot(data[0:slotSize])
	gen1, commit1, ok1 := decodeSlot(data[slotSize:superblockSize])
	switch {
	case ok0 && ok1:
		if gen1 > gen0 {
			s.gen, s.commit = gen1, commit1
		} else {
			s.gen, s.commit = gen0, commit0
		}
	case ok0:
		s.gen, s.commit = gen0, commit0
	case ok1:
		s.gen, s.commit = gen1, commit1
	default:
		return fmt.Errorf("%w: kvfile %s: no valid superblock slot", diskio.ErrCorrupt, s.path)
	}
	if s.commit < superblockSize || s.commit > int64(len(data)) {
		return fmt.Errorf("%w: kvfile %s: commit offset %d outside file of %d bytes",
			diskio.ErrCorrupt, s.path, s.commit, len(data))
	}

	s.index = make(map[string]entry, countPuts(data[superblockSize:]))

	// Committed region: every record must verify — this data was
	// acknowledged as durable, so damage here is corruption, never debris.
	var recs []rec
	off := int64(superblockSize)
	for off < s.commit {
		if recs, off, err = parseNext(recs[:0], data, off, s.commit); err != nil {
			return fmt.Errorf("%w: kvfile %s: committed record at offset %d: %v",
				diskio.ErrCorrupt, s.path, off, err)
		}
		s.apply(recs)
	}

	// Tail region: complete, verified records and batches are appends that
	// missed their commit mark (crash between the data fsync and the
	// superblock fsync) — replay them. The first failure ends the log if it
	// looks like a torn append (truncated by EOF, or nothing but zero bytes
	// after it); otherwise committed-era damage cannot be ruled out and the
	// open fails.
	end := off
	for off < int64(len(data)) {
		if recs, off, err = parseNext(recs[:0], data, off, int64(len(data))); err != nil {
			if errors.Is(err, errTruncated) || allZero(data[off:]) {
				break
			}
			return fmt.Errorf("%w: kvfile %s: record at offset %d: %v",
				diskio.ErrCorrupt, s.path, off, err)
		}
		s.apply(recs)
		end = off
	}

	s.dataEnd = end
	if end != int64(len(data)) || s.commit != end {
		// Crash debris found: truncate it away and re-commit the recovered
		// length so the next open sees a clean log.
		if err := s.f.Truncate(end); err != nil {
			return fmt.Errorf("kvfile: truncating recovered log %s: %w", s.path, err)
		}
		s.commit = end
		s.gen++
		if err := s.writeSlot(); err != nil {
			return err
		}
		if err := s.sync(s.f); err != nil {
			return err
		}
		obs.Default().Counter("diskio.kvfile.recovered").Inc()
	}
	return nil
}

// apply folds parsed entries into the index and the garbage accounting.
func (s *Store) apply(recs []rec) {
	for _, r := range recs {
		if old, ok := s.index[r.key]; ok {
			s.liveBytes -= old.recLen
		}
		if r.kind == kindDelete {
			delete(s.index, r.key)
		} else {
			s.index[r.key] = entry{valOff: r.valOff, valLen: r.valLen, recLen: r.end - r.off}
			s.liveBytes += r.end - r.off
		}
	}
}

// errTruncated marks a record cut off by the end of the scan region.
var errTruncated = errors.New("record truncated")

// rec is one parsed entry: a record, or one member of a batch.
type rec struct {
	kind   byte
	key    string
	valOff int64
	valLen int
	off    int64 // entry start
	end    int64 // offset just past the entry, and past the CRC of a record
}

// parseNext decodes and verifies the record or batch starting at off,
// reading no byte at or past limit, and appends its entries to recs. On
// success next is the offset just past it; on failure next is off.
func parseNext(recs []rec, data []byte, off, limit int64) (out []rec, next int64, err error) {
	buf := data[off:limit]
	if len(buf) < 1 {
		return recs, off, errTruncated
	}
	n := 0 // bytes the CRC covers
	if buf[0] == kindBatch {
		bodyLen, m := binary.Uvarint(buf[1:])
		if m <= 0 || bodyLen > uint64(len(buf)) || 1+m+int(bodyLen)+4 > len(buf) {
			return recs, off, errTruncated
		}
		n = 1 + m + int(bodyLen)
		// The entries must tile the body exactly; they are only trusted
		// (and the error only final) once the checksum below has passed.
		for p := 1 + m; p < n; {
			r, l, perr := parseEntry(buf[p:n], off+int64(p))
			if perr != nil {
				err = fmt.Errorf("malformed batch entry at offset %d: %v", off+int64(p), perr)
				break
			}
			recs = append(recs, r)
			p += l
		}
	} else {
		r, l, perr := parseEntry(buf, off)
		if perr != nil {
			return recs, off, perr
		}
		if l+4 > len(buf) {
			return recs, off, errTruncated
		}
		r.end += 4
		recs, n = append(recs, r), l
	}
	want := binary.LittleEndian.Uint32(buf[n : n+4])
	if got := crc32.Checksum(buf[:n], crcTable); got != want {
		return recs, off, fmt.Errorf("checksum mismatch (stored %08x, computed %08x)", want, got)
	}
	if err != nil {
		return recs, off, err
	}
	return recs, off + int64(n) + 4, nil
}

// parseEntry decodes the entry at the start of buf, which sits at file
// offset off, and returns its length.
func parseEntry(buf []byte, off int64) (r rec, n int, err error) {
	kind, hdr, keyLen, valLen, err := entryHeader(buf)
	if err != nil {
		return r, 0, err
	}
	n = hdr + keyLen + valLen
	return rec{kind: kind, key: string(buf[hdr : hdr+keyLen]), valOff: off + int64(hdr+keyLen),
		valLen: valLen, off: off, end: off + int64(n)}, n, nil
}

// entryHeader decodes the kind and lengths of the entry at the start of buf:
// its key is buf[hdr:hdr+keyLen], and its value follows the key. The whole
// entry lies within buf.
func entryHeader(buf []byte) (kind byte, hdr, keyLen, valLen int, err error) {
	if len(buf) < 1 {
		return 0, 0, 0, 0, errTruncated
	}
	if kind = buf[0]; kind != kindPut && kind != kindDelete {
		return 0, 0, 0, 0, fmt.Errorf("unknown record kind 0x%02x", kind)
	}
	p := 1
	kl, m := binary.Uvarint(buf[p:])
	if m <= 0 {
		return 0, 0, 0, 0, errTruncated
	}
	p += m
	vl := uint64(0)
	if kind == kindPut {
		if vl, m = binary.Uvarint(buf[p:]); m <= 0 {
			return 0, 0, 0, 0, errTruncated
		}
		p += m
	}
	if kl > uint64(len(buf)) || vl > uint64(len(buf)) || uint64(p)+kl+vl > uint64(len(buf)) {
		return 0, 0, 0, 0, errTruncated
	}
	return kind, p, int(kl), int(vl), nil
}

// countPuts walks the entry headers of log, checking no checksum and
// copying no key, and counts the puts up to the first malformed frame: a
// capacity hint for the index, nothing more. The hint is capped at one
// entry per 16 bytes of log, so that hostile bytes cannot buy an
// allocation out of proportion to the file.
func countPuts(log []byte) int {
	n := 0
	for buf := log; len(buf) > 0; {
		if buf[0] == kindBatch {
			bodyLen, m := binary.Uvarint(buf[1:])
			if m <= 0 || bodyLen > uint64(len(buf)) || 1+m+int(bodyLen)+4 > len(buf) {
				break
			}
			for body := buf[1+m : 1+m+int(bodyLen)]; len(body) > 0; {
				kind, hdr, keyLen, valLen, err := entryHeader(body)
				if err != nil {
					break
				}
				if kind == kindPut {
					n++
				}
				body = body[hdr+keyLen+valLen:]
			}
			buf = buf[1+m+int(bodyLen)+4:]
			continue
		}
		kind, hdr, keyLen, valLen, err := entryHeader(buf)
		if err != nil || hdr+keyLen+valLen+4 > len(buf) {
			break
		}
		if kind == kindPut {
			n++
		}
		buf = buf[hdr+keyLen+valLen+4:]
	}
	return min(n, len(log)/16)
}

// entryLen is the encoded length of an entry.
func entryLen(kind byte, key string, val []byte) int {
	n := 1 + uvarintLen(len(key)) + len(key)
	if kind == kindPut {
		n += uvarintLen(len(val)) + len(val)
	}
	return n
}

func uvarintLen(x int) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

// appendEntry encodes an entry onto buf and describes it, with offsets
// relative to buf.
func appendEntry(buf []byte, kind byte, key string, val []byte) ([]byte, rec) {
	r := rec{kind: kind, key: key, valLen: len(val), off: int64(len(buf))}
	buf = append(buf, kind)
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	if kind == kindPut {
		buf = binary.AppendUvarint(buf, uint64(len(val)))
	}
	buf = append(buf, key...)
	r.valOff = int64(len(buf))
	buf = append(buf, val...)
	r.end = int64(len(buf))
	return buf, r
}

// appendRecord encodes a record and describes it, with offsets relative to
// the returned buffer.
func appendRecord(kind byte, key string, val []byte) ([]byte, rec) {
	buf, r := appendEntry(make([]byte, 0, entryLen(kind, key, val)+4), kind, key, val)
	r.end += 4
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable)), r
}

// writeLog appends buf, whose entries are recs with offsets relative to buf,
// at dataEnd and folds them into the index; callers hold s.mu and then run
// maybeCommit. A failed write may leave a prefix of buf behind, which a
// shorter later append would not cover and the next open would take for
// corruption, so it is cut off again.
func (s *Store) writeLog(buf []byte, recs []rec) error {
	if _, err := s.f.WriteAt(buf, s.dataEnd); err != nil {
		if terr := s.f.Truncate(s.dataEnd); terr != nil {
			s.failed = fmt.Errorf("%w: truncating %s after a failed append: %v", ErrFailed, s.path, terr)
		}
		return fmt.Errorf("kvfile: append %s: %w", s.path, err)
	}
	for i := range recs {
		recs[i].valOff += s.dataEnd
		recs[i].off += s.dataEnd
		recs[i].end += s.dataEnd
	}
	s.dataEnd += int64(len(buf))
	s.apply(recs)
	s.pending += len(recs)
	return nil
}

// append writes one record; callers hold s.mu and then run maybeCommit.
func (s *Store) append(kind byte, key string, val []byte) error {
	buf, r := appendRecord(kind, key, val)
	return s.writeLog(buf, []rec{r})
}

// sync flushes f — the log, a compaction's rewrite of it, or the directory —
// and fails the handle for good when the flush does.
func (s *Store) sync(f *os.File) error {
	obs.Default().Counter("diskio.kvfile.fsyncs").Inc()
	if err := fsync(f); err != nil {
		s.failed = fmt.Errorf("%w: sync %s: %v", ErrFailed, s.path, err)
		return s.failed
	}
	return nil
}

// syncDir flushes the directory so a just-renamed or just-created file
// survives a crash.
func (s *Store) syncDir() error {
	d, err := os.Open(filepath.Dir(s.path))
	if err != nil {
		return fmt.Errorf("kvfile: %w", err)
	}
	defer d.Close()
	return s.sync(d)
}

// writable is why the store cannot take a mutation, if it cannot; callers
// hold s.mu.
func (s *Store) writable() error {
	if s.closed {
		return ErrClosed
	}
	return s.failed
}

// maybeCommit runs the commit sequence when the batch is full; callers hold
// s.mu.
func (s *Store) maybeCommit(force bool) error {
	if s.pending == 0 || (!force && s.pending < s.opts.SyncEvery) {
		return nil
	}
	// Data first, then the commit mark: a crash between the two fsyncs
	// leaves the previous superblock valid and the new records replayable.
	if err := s.sync(s.f); err != nil {
		return err
	}
	s.gen++
	s.commit = s.dataEnd
	if err := s.writeSlot(); err != nil {
		return err
	}
	if err := s.sync(s.f); err != nil {
		return err
	}
	s.pending = 0
	return nil
}

// compactFraction is the garbage fraction (dead bytes over total log bytes)
// at which a mutation triggers compaction.
const compactFraction = 0.5

// maybeCompact triggers compaction when the log has outgrown the floor and
// garbage dominates; callers hold s.mu.
func (s *Store) maybeCompact() error {
	if s.opts.NoAutoCompact {
		return nil
	}
	logBytes := s.dataEnd - superblockSize
	if logBytes < s.opts.CompactMinBytes {
		return nil
	}
	if float64(logBytes-s.liveBytes) < compactFraction*float64(logBytes) {
		return nil
	}
	return s.compactLocked()
}

// Put implements diskio.Store.
func (s *Store) Put(key string, data []byte) error {
	if key == "" {
		return errors.New("kvfile: empty key")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writable(); err != nil {
		return err
	}
	if err := s.append(kindPut, key, data); err != nil {
		return err
	}
	if err := s.maybeCommit(false); err != nil {
		return err
	}
	s.countWrite(len(data))
	return s.maybeCompact()
}

// Get implements diskio.Store.
func (s *Store) Get(key string) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	e, ok := s.index[key]
	if !ok {
		return nil, fmt.Errorf("%w: %s", diskio.ErrNotFound, key)
	}
	buf := make([]byte, e.valLen)
	if _, err := s.f.ReadAt(buf, e.valOff); err != nil {
		return nil, fmt.Errorf("kvfile: get %s: %w", key, err)
	}
	s.countRead(len(buf))
	return buf, nil
}

// Size implements diskio.Store.
func (s *Store) Size(key string) (int64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return 0, ErrClosed
	}
	e, ok := s.index[key]
	if !ok {
		return 0, fmt.Errorf("%w: %s", diskio.ErrNotFound, key)
	}
	return int64(e.valLen), nil
}

// Delete implements diskio.Store. Deleting an absent key is a no-op and
// appends nothing.
func (s *Store) Delete(key string) error {
	if key == "" {
		return errors.New("kvfile: empty key")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writable(); err != nil {
		return err
	}
	if _, ok := s.index[key]; !ok {
		return nil
	}
	if err := s.append(kindDelete, key, nil); err != nil {
		return err
	}
	if err := s.maybeCommit(false); err != nil {
		return err
	}
	s.countWrite(0)
	return s.maybeCompact()
}

// Apply implements diskio.Batcher: the batch is appended as one frame and
// enters the index under the lock readers share, so it is visible whole or
// not at all, now and after any crash. Like Delete, it appends nothing for a
// delete of an absent key; each entry it does append counts as one mutation
// against SyncEvery and as one write in Stats.
func (s *Store) Apply(puts []diskio.KV, dels []string) error {
	if err := diskio.CheckBatch(puts, dels); err != nil {
		return fmt.Errorf("kvfile: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writable(); err != nil {
		return err
	}
	bodyLen := 0
	for _, kv := range puts {
		bodyLen += entryLen(kindPut, kv.Key, kv.Value)
	}
	var live []string // the deletes that hit a key
	for _, k := range dels {
		if _, ok := s.index[k]; ok {
			live = append(live, k)
			bodyLen += entryLen(kindDelete, k, nil)
		}
	}
	if bodyLen == 0 {
		return nil
	}
	buf := make([]byte, 0, 1+uvarintLen(bodyLen)+bodyLen+4)
	buf = binary.AppendUvarint(append(buf, kindBatch), uint64(bodyLen))
	recs := make([]rec, 0, len(puts)+len(live))
	var r rec
	for _, kv := range puts {
		buf, r = appendEntry(buf, kindPut, kv.Key, kv.Value)
		recs = append(recs, r)
	}
	for _, k := range live {
		buf, r = appendEntry(buf, kindDelete, k, nil)
		recs = append(recs, r)
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))
	if err := s.writeLog(buf, recs); err != nil {
		return err
	}
	if err := s.maybeCommit(false); err != nil {
		return err
	}
	for _, kv := range puts {
		s.countWrite(len(kv.Value))
	}
	for range live {
		s.countWrite(0)
	}
	return s.maybeCompact()
}

// Keys implements diskio.Store: a scan of the index under the lock readers
// share, which an Apply's keys enter together, then a sort of the matches
// alone.
func (s *Store) Keys(prefix string) ([]string, error) {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, ErrClosed
	}
	var keys []string
	for k := range s.index {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	s.mu.RUnlock()
	sort.Strings(keys)
	return keys, nil
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Sync commits any pending batch (data fsync + superblock fsync).
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writable(); err != nil {
		return err
	}
	return s.maybeCommit(true)
}

// Close commits pending writes and releases the file. Further operations
// return ErrClosed. A store that failed commits nothing more and reports the
// failure again.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	err := s.failed
	if err == nil {
		err = s.maybeCommit(true)
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.closed = true
	return err
}

func compactPath(path string) string { return path + ".compact" }

// Compact rewrites the log to live records only (sorted by key), atomically
// replacing the file. The rewritten file is fully committed before the
// rename, so a crash at any point leaves either the old log or the new one.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writable(); err != nil {
		return err
	}
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	// Pending appends must be durable in the OLD log first: if the rewrite
	// fails midway we fall back to it.
	if err := s.maybeCommit(true); err != nil {
		return err
	}
	tmpPath := compactPath(s.path)
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("kvfile: compact %s: %w", s.path, err)
	}
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmpPath)
		return err
	}

	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	if _, err := tmp.WriteAt(make([]byte, superblockSize), 0); err != nil {
		return cleanup(fmt.Errorf("kvfile: compact %s: %w", s.path, err))
	}
	newIndex := make(map[string]entry, len(s.index))
	off := int64(superblockSize)
	for _, k := range keys {
		e := s.index[k]
		val := make([]byte, e.valLen)
		if _, err := s.f.ReadAt(val, e.valOff); err != nil {
			return cleanup(fmt.Errorf("kvfile: compact %s: reading %s: %w", s.path, k, err))
		}
		buf, r := appendRecord(kindPut, k, val)
		if _, err := tmp.WriteAt(buf, off); err != nil {
			return cleanup(fmt.Errorf("kvfile: compact %s: %w", s.path, err))
		}
		newIndex[k] = entry{valOff: off + r.valOff, valLen: e.valLen, recLen: int64(len(buf))}
		off += int64(len(buf))
	}
	if err := s.sync(tmp); err != nil {
		return cleanup(err)
	}
	newGen := uint64(1)
	if _, err := tmp.WriteAt(encodeSlot(newGen, off), int64(newGen%2)*slotSize); err != nil {
		return cleanup(fmt.Errorf("kvfile: compact %s: %w", s.path, err))
	}
	if err := s.sync(tmp); err != nil {
		return cleanup(err)
	}
	if err := os.Rename(tmpPath, s.path); err != nil {
		return cleanup(fmt.Errorf("kvfile: compact %s: %w", s.path, err))
	}
	// Past the rename the compacted file IS the store: the old inode is
	// unlinked, so the in-memory swap must complete even if the directory
	// sync fails — otherwise later appends would land in a deleted file and
	// vanish at close. The sync error is surfaced after the swap.
	dirErr := s.syncDir()
	reclaimed := (s.dataEnd - superblockSize) - (off - superblockSize)
	old := s.f
	s.f = tmp
	old.Close()
	s.index = newIndex
	s.gen = newGen
	s.commit = off
	s.dataEnd = off
	s.liveBytes = off - superblockSize
	s.pending = 0
	obs.Default().Counter("diskio.kvfile.compactions").Inc()
	obs.Default().Counter("diskio.kvfile.compact.reclaimed_bytes").Add(reclaimed)
	return dirErr
}

// LogBytes returns the current log length excluding the superblock — the
// quantity compaction shrinks.
func (s *Store) LogBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.dataEnd - superblockSize
}

// Stats implements diskio.Store.
func (s *Store) Stats() diskio.Stats {
	return diskio.Stats{
		BytesRead:    s.bytesRead.Load(),
		BytesWritten: s.bytesWritten.Load(),
		Reads:        s.reads.Load(),
		Writes:       s.writes.Load(),
	}
}

// ResetStats implements diskio.Store.
func (s *Store) ResetStats() {
	s.bytesRead.Store(0)
	s.bytesWritten.Store(0)
	s.reads.Store(0)
	s.writes.Store(0)
}

func (s *Store) countRead(n int)  { s.bytesRead.Add(int64(n)); s.reads.Add(1) }
func (s *Store) countWrite(n int) { s.bytesWritten.Add(int64(n)); s.writes.Add(1) }

// allZero reports whether every byte of b is zero.
func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}
