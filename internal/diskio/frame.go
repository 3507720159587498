package diskio

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strings"

	"github.com/demon-mining/demon/internal/obs"
)

// Record framing: every value is wrapped in a small header carrying a CRC so
// that torn writes (a persisted prefix of the intended bytes) and bit rot are
// detected on read instead of being decoded into a silently wrong model. The
// frame is
//
//	[magic 0xD7][version 0x01][crc32c little-endian, 4 bytes][payload...]
//
// where the CRC covers the payload only. The header is fixed-size so Size
// arithmetic stays trivial and a torn write of fewer than frameHeaderLen
// bytes is unambiguously corrupt.

const (
	frameMagic     = 0xD7
	frameVersion   = 0x01
	frameHeaderLen = 6
)

// QuarantinePrefix is the key prefix corrupt values are moved under by
// Quarantine and Scrub. Quarantined values keep their frame bytes verbatim
// so the damage can be inspected post mortem.
const QuarantinePrefix = "quarantine/"

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Frame wraps payload in a checksummed record frame.
func Frame(payload []byte) []byte {
	buf := make([]byte, frameHeaderLen+len(payload))
	buf[0] = frameMagic
	buf[1] = frameVersion
	binary.LittleEndian.PutUint32(buf[2:6], crc32.Checksum(payload, crcTable))
	copy(buf[frameHeaderLen:], payload)
	return buf
}

// Unframe verifies and strips a record frame, returning the payload. Any
// mismatch — short frame, wrong magic or version, CRC failure — is reported
// as ErrCorrupt.
func Unframe(data []byte) ([]byte, error) {
	if len(data) < frameHeaderLen {
		return nil, fmt.Errorf("%w: frame shorter than header (%d bytes)", ErrCorrupt, len(data))
	}
	if data[0] != frameMagic {
		return nil, fmt.Errorf("%w: bad frame magic 0x%02x", ErrCorrupt, data[0])
	}
	if data[1] != frameVersion {
		return nil, fmt.Errorf("%w: unsupported frame version %d", ErrCorrupt, data[1])
	}
	payload := data[frameHeaderLen:]
	want := binary.LittleEndian.Uint32(data[2:6])
	if got := crc32.Checksum(payload, crcTable); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch (stored %08x, computed %08x)", ErrCorrupt, want, got)
	}
	return payload, nil
}

// ChecksumStore wraps a Store so that every value is stored framed
// (Frame/Unframe): Get fails with ErrCorrupt on torn or bit-rotted data
// instead of handing the damage to a decoder. Corrupt keys can be moved
// aside with Quarantine, and Scrub sweeps a whole prefix.
type ChecksumStore struct {
	Inner Store
}

// Unwrap returns the wrapped store.
func (s *ChecksumStore) Unwrap() Store { return s.Inner }

// NewChecksumStore wraps inner with record framing.
func NewChecksumStore(inner Store) *ChecksumStore {
	return &ChecksumStore{Inner: inner}
}

// Put implements Store.
func (s *ChecksumStore) Put(key string, data []byte) error {
	return s.Inner.Put(key, Frame(data))
}

// CanApply reports whether the wrapped store batches; see AsBatcher.
func (s *ChecksumStore) CanApply() bool { return canApply(s.Inner) }

// Apply implements Batcher over a batching store, framing every value.
func (s *ChecksumStore) Apply(puts []KV, dels []string) error {
	b, ok := AsBatcher(s.Inner)
	if !ok {
		return errNoBatch(s.Inner)
	}
	framed := make([]KV, len(puts))
	for i, kv := range puts {
		framed[i] = KV{Key: kv.Key, Value: Frame(kv.Value)}
	}
	return b.Apply(framed, dels)
}

// Get implements Store. A value that fails frame verification is reported as
// ErrCorrupt (and counted under diskio.corrupt.detected) — never returned.
func (s *ChecksumStore) Get(key string) ([]byte, error) {
	raw, err := s.Inner.Get(key)
	if err != nil {
		return nil, err
	}
	payload, err := Unframe(raw)
	if err != nil {
		obs.Default().Counter("diskio.corrupt.detected").Inc()
		return nil, fmt.Errorf("diskio: get %s: %w", key, err)
	}
	return payload, nil
}

// Size implements Store, reporting the payload size (stored size minus the
// frame header). A stored value shorter than a header is reported at size 0;
// Get will report it corrupt.
func (s *ChecksumStore) Size(key string) (int64, error) {
	n, err := s.Inner.Size(key)
	if err != nil {
		return 0, err
	}
	if n < frameHeaderLen {
		return 0, nil
	}
	return n - frameHeaderLen, nil
}

// Delete implements Store.
func (s *ChecksumStore) Delete(key string) error { return s.Inner.Delete(key) }

// Keys implements Store.
func (s *ChecksumStore) Keys(prefix string) ([]string, error) { return s.Inner.Keys(prefix) }

// Stats implements Store.
func (s *ChecksumStore) Stats() Stats { return s.Inner.Stats() }

// ResetStats implements Store.
func (s *ChecksumStore) ResetStats() { s.Inner.ResetStats() }

// Quarantine moves the raw (framed) bytes of key under QuarantinePrefix so a
// corrupt value is preserved for inspection but can no longer be read as
// data. Counted under diskio.corrupt.quarantined.
func (s *ChecksumStore) Quarantine(key string) error {
	raw, err := s.Inner.Get(key)
	if err != nil {
		return fmt.Errorf("diskio: quarantining %s: %w", key, err)
	}
	if err := s.Inner.Put(QuarantinePrefix+key, raw); err != nil {
		return fmt.Errorf("diskio: quarantining %s: %w", key, err)
	}
	if err := s.Inner.Delete(key); err != nil {
		return fmt.Errorf("diskio: quarantining %s: %w", key, err)
	}
	obs.Default().Counter("diskio.corrupt.quarantined").Inc()
	return nil
}

// ScrubReport summarizes a Scrub pass.
type ScrubReport struct {
	// Checked is the number of keys whose frames were verified.
	Checked int
	// Quarantined lists the keys that failed verification and were moved
	// under QuarantinePrefix.
	Quarantined []string
}

// Scrub verifies the frame of every key under prefix and quarantines the
// corrupt ones, returning what it found. Keys already quarantined are
// skipped. Scrub reads every value under prefix; run it on open or on
// demand, not on the ingest path.
func (s *ChecksumStore) Scrub(prefix string) (*ScrubReport, error) {
	keys, err := s.Inner.Keys(prefix)
	if err != nil {
		return nil, fmt.Errorf("diskio: scrub: %w", err)
	}
	rep := &ScrubReport{}
	for _, key := range keys {
		if strings.HasPrefix(key, QuarantinePrefix) {
			continue
		}
		raw, err := s.Inner.Get(key)
		if err != nil {
			return rep, fmt.Errorf("diskio: scrub %s: %w", key, err)
		}
		rep.Checked++
		if _, err := Unframe(raw); err != nil {
			obs.Default().Counter("diskio.corrupt.detected").Inc()
			if qerr := s.Quarantine(key); qerr != nil {
				return rep, qerr
			}
			rep.Quarantined = append(rep.Quarantined, key)
		}
	}
	return rep, nil
}
