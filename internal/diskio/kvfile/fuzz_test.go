package kvfile

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/demon-mining/demon/internal/diskio"
)

// FuzzKVFileReopen drives a random mutation sequence to a committed close,
// then damages the file and reopens it. The recovery contract under test:
//
//   - a reopen that succeeds must surface a state the store actually passed
//     through (for byte flips: exactly the final committed state — flips can
//     only land in superblock slots, where the dual-slot protocol absorbs
//     them, or in committed records, which must be rejected);
//   - a reopen that fails must fail with diskio.ErrCorrupt;
//   - committed data is never silently dropped or altered into a state the
//     store never held.
//
// Truncation and zeroing that reach EOF are physically indistinguishable
// from a torn crash tail, so there the oracle admits any earlier committed
// state (a snapshot of the op sequence), not only the final one.
func FuzzKVFileReopen(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 2, 3}, uint8(0), uint16(70), uint8(1))
	f.Add([]byte{0, 10, 0, 10, 2, 10, 0, 11}, uint8(1), uint16(80), uint8(4))
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 3, 0}, uint8(2), uint16(100), uint8(20))
	f.Add([]byte{0, 5, 2, 5, 0, 5}, uint8(0), uint16(3), uint8(1))
	f.Add([]byte{0, 7}, uint8(1), uint16(0), uint8(0))
	f.Add([]byte{0, 1, 0, 2}, uint8(2), uint16(64), uint8(255))
	f.Add([]byte{0, 1, 4, 9, 2, 2, 4, 30}, uint8(0), uint16(120), uint8(3))
	f.Add([]byte{4, 5, 4, 6, 3, 0, 4, 7}, uint8(1), uint16(150), uint8(1))

	f.Fuzz(func(t *testing.T, ops []byte, action uint8, rawOff uint16, rawLen uint8) {
		path := filepath.Join(t.TempDir(), "fuzz.kv")
		s, err := Open(path, Options{NoAutoCompact: true})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}

		// Replay the op stream, snapshotting the model after every mutation:
		// each snapshot is a state the committed store passed through.
		model := map[string]string{}
		snapshots := []map[string]string{cloneState(model)}
		for i := 0; i+1 < len(ops) && i < 80; i += 2 {
			sel, p := ops[i], ops[i+1]
			key := fmt.Sprintf("k%d", p%8)
			switch sel % 5 {
			case 4: // one batch: two puts and a delete, over three distinct keys
				a, b, d := fmt.Sprintf("k%d", (p+1)%8), fmt.Sprintf("k%d", (p+2)%8), fmt.Sprintf("k%d", (p+5)%8)
				va, vb := bytes.Repeat([]byte{p}, int(p%40)), bytes.Repeat([]byte{^p}, int(p%90)+1)
				if err := s.Apply([]diskio.KV{{Key: a, Value: va}, {Key: b, Value: vb}}, []string{d}); err != nil {
					t.Fatalf("Apply: %v", err)
				}
				model[a], model[b] = string(va), string(vb)
				delete(model, d)
			case 0, 1:
				val := bytes.Repeat([]byte{p}, int(p%60)+1)
				if err := s.Put(key, val); err != nil {
					t.Fatalf("Put: %v", err)
				}
				model[key] = string(val)
			case 2:
				if err := s.Delete(key); err != nil {
					t.Fatalf("Delete: %v", err)
				}
				delete(model, key)
			case 3:
				if err := s.Compact(); err != nil {
					t.Fatalf("Compact: %v", err)
				}
				// Compaction rewrites the whole file: earlier byte layouts
				// are gone, so earlier snapshots are no longer reachable by
				// truncation either.
				snapshots = snapshots[:0]
			}
			snapshots = append(snapshots, cloneState(model))
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		final := cloneState(model)

		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		orig := append([]byte(nil), data...)

		// Damage the file.
		reachesEOF := false
		switch action % 3 {
		case 0: // flip one byte
			off := int(rawOff) % len(data)
			data[off] ^= byte(rawLen) | 1
		case 1: // truncate
			data = data[:int(rawOff)%(len(data)+1)]
			reachesEOF = true
		case 2: // zero a range
			off := int(rawOff) % len(data)
			end := off + int(rawLen)
			if end >= len(data) {
				end = len(data)
				reachesEOF = true
			}
			for i := off; i < end; i++ {
				data[i] = 0
			}
		}
		if bytes.Equal(data, orig) {
			return // damage was a no-op; nothing to test
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		re, err := Open(path, Options{NoAutoCompact: true})
		if err != nil {
			if !errors.Is(err, diskio.ErrCorrupt) {
				t.Fatalf("reopen of damaged file failed with %v, want ErrCorrupt", err)
			}
			return
		}
		defer re.Close()
		got := fuzzDump(t, re)

		if stateEqual(got, final) {
			return
		}
		if !reachesEOF {
			t.Fatalf("mid-file damage (action %d) silently changed the state:\n got %v\nwant %v",
				action%3, got, final)
		}
		// EOF-reaching damage mimics a torn tail: any committed snapshot is
		// an honest recovery, plus the empty state of a truncate-to-zero.
		if len(got) == 0 {
			return
		}
		for _, snap := range snapshots {
			if stateEqual(got, snap) {
				return
			}
		}
		t.Fatalf("recovered state matches no committed snapshot:\n got %v\nfinal %v", got, final)
	})
}

func cloneState(m map[string]string) map[string]string {
	c := make(map[string]string, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

func stateEqual(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func fuzzDump(t *testing.T, s *Store) map[string]string {
	t.Helper()
	keys, err := s.Keys("")
	if err != nil {
		t.Fatalf("Keys: %v", err)
	}
	out := make(map[string]string, len(keys))
	for _, k := range keys {
		v, err := s.Get(k)
		if err != nil {
			t.Fatalf("Get(%q): %v", k, err)
		}
		out[k] = string(v)
	}
	return out
}
