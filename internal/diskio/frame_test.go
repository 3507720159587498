package diskio

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB}, 1000)} {
		framed := Frame(payload)
		got, err := Unframe(framed)
		if err != nil {
			t.Fatalf("Unframe(%d bytes): %v", len(payload), err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("round trip changed payload: %v vs %v", got, payload)
		}
	}
}

func TestUnframeDetectsDamage(t *testing.T) {
	framed := Frame([]byte("hello, demon"))

	// Every truncation point, including an empty value, is corrupt.
	for cut := 0; cut < len(framed); cut++ {
		if _, err := Unframe(framed[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d bytes: err = %v, want ErrCorrupt", cut, err)
		}
	}
	// Every single-bit flip is corrupt.
	for i := 0; i < len(framed); i++ {
		bad := bytes.Clone(framed)
		bad[i] ^= 0x40
		if _, err := Unframe(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bit flip at %d: err = %v, want ErrCorrupt", i, err)
		}
	}
	// Trailing garbage changes the CRC input and is corrupt.
	if _, err := Unframe(append(bytes.Clone(framed), 0x00)); !errors.Is(err, ErrCorrupt) {
		t.Fatal("trailing garbage not detected")
	}
}

// FuzzUnframe holds Unframe, which every ChecksumStore.Get runs on stored
// bytes, to the decoder contract: ErrCorrupt or a payload that frames back to
// the input, no panic, and at most 64 KiB + 256 B per input byte allocated.
func FuzzUnframe(f *testing.F) {
	for _, payload := range [][]byte{nil, []byte("x"), bytes.Repeat([]byte{0xAB}, 300)} {
		framed := Frame(payload)
		f.Add(framed)
		f.Add(framed[:len(framed)-1])
	}
	f.Add([]byte{frameMagic, frameVersion + 1, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		payload, err := Unframe(data)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<16+256*uint64(len(data)) {
			t.Fatalf("unframing %d bytes allocated %d", len(data), alloc)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped frame error: %v", err)
			}
			return
		}
		if out := Frame(payload); !bytes.Equal(out, data) {
			t.Fatalf("unframed payload frames to different bytes:\n in %x\nout %x", data, out)
		}
	})
}

func TestChecksumStoreRoundTripAndSize(t *testing.T) {
	s := NewChecksumStore(NewMemStore())
	if err := s.Put("a/b", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("a/b")
	if err != nil || string(got) != "payload" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if n, err := s.Size("a/b"); err != nil || n != int64(len("payload")) {
		t.Fatalf("Size = %d, %v", n, err)
	}
	if _, err := s.Get("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key err = %v", err)
	}
}

func TestChecksumStoreDetectsTornWrite(t *testing.T) {
	base := NewMemStore()
	fault := NewFaultStore(base)
	fault.TornWrite = true
	s := NewChecksumStore(fault)

	if err := s.Put("good", []byte("intact value")); err != nil {
		t.Fatal(err)
	}
	fault.CrashAfter(0)
	if err := s.Put("torn", []byte("this write is interrupted half way")); !errors.Is(err, ErrInjected) {
		t.Fatalf("torn Put err = %v", err)
	}
	fault.Revive()
	fault.DisarmCountdown()

	if _, err := s.Get("good"); err != nil {
		t.Fatalf("intact value unreadable: %v", err)
	}
	if _, err := s.Get("torn"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn value err = %v, want ErrCorrupt", err)
	}
}

func TestChecksumStoreQuarantineAndScrub(t *testing.T) {
	base := NewMemStore()
	s := NewChecksumStore(base)
	if err := s.Put("m/good", []byte("fine")); err != nil {
		t.Fatal(err)
	}
	// Plant bit rot under the frame.
	raw, err := base.Get("m/bad")
	if !errors.Is(err, ErrNotFound) {
		t.Fatal("unexpected key")
	}
	_ = raw
	framed := Frame([]byte("will rot"))
	framed[len(framed)-1] ^= 0xFF
	if err := base.Put("m/bad", framed); err != nil {
		t.Fatal(err)
	}

	rep, err := s.Scrub("m/")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checked != 2 || len(rep.Quarantined) != 1 || rep.Quarantined[0] != "m/bad" {
		t.Fatalf("scrub report = %+v", rep)
	}
	// The corrupt value is out of the live key space but preserved.
	if _, err := s.Get("m/bad"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("quarantined key still live: %v", err)
	}
	kept, err := base.Get(QuarantinePrefix + "m/bad")
	if err != nil || !bytes.Equal(kept, framed) {
		t.Fatalf("quarantine did not preserve bytes: %v", err)
	}
	// A second scrub finds nothing (quarantine keys are skipped).
	rep, err = s.Scrub("")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quarantined) != 0 {
		t.Fatalf("second scrub quarantined %v", rep.Quarantined)
	}
}
