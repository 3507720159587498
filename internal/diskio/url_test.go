package diskio

import (
	"strconv"
	"strings"
	"testing"
)

func TestParseStoreURL(t *testing.T) {
	for _, tc := range []struct {
		in           string
		scheme, path string
		opts         map[string]string
		wantErr      bool
	}{
		{in: "mem:", scheme: "mem", path: "", opts: map[string]string{}},
		{in: "file:/tmp/x", scheme: "file", path: "/tmp/x", opts: map[string]string{}},
		{in: "kvfile:rel/store.kv?cache=4mb&sync=8", scheme: "kvfile", path: "rel/store.kv",
			opts: map[string]string{"cache": "4mb", "sync": "8"}},
		{in: "no-scheme-here", wantErr: true},
		{in: ":path-no-scheme", wantErr: true},
		{in: "mem:?=v", wantErr: true},
	} {
		scheme, path, opts, err := ParseStoreURL(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseStoreURL(%q): want error, got scheme %q", tc.in, scheme)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseStoreURL(%q): %v", tc.in, err)
			continue
		}
		if scheme != tc.scheme || path != tc.path {
			t.Errorf("ParseStoreURL(%q) = %q, %q; want %q, %q", tc.in, scheme, path, tc.scheme, tc.path)
		}
		if len(opts) != len(tc.opts) {
			t.Errorf("ParseStoreURL(%q) opts = %v, want %v", tc.in, opts, tc.opts)
		}
		for k, v := range tc.opts {
			if opts[k] != v {
				t.Errorf("ParseStoreURL(%q) opts[%q] = %q, want %q", tc.in, k, opts[k], v)
			}
		}
	}
}

func TestParseSize(t *testing.T) {
	for _, tc := range []struct {
		in      string
		want    int64
		wantErr bool
	}{
		{in: "0", want: 0},
		{in: "1234", want: 1234},
		{in: "64kb", want: 64 << 10},
		{in: "64KB", want: 64 << 10},
		{in: "4mb", want: 4 << 20},
		{in: "2g", want: 2 << 30},
		{in: "100b", want: 100},
		{in: " 8 mb ", want: 8 << 20},
		{in: "x", wantErr: true},
		{in: "", wantErr: true},
		{in: "mb", wantErr: true},
		{in: "-5mb", wantErr: true},
		{in: "-1", wantErr: true},
		{in: "9999999999gb", wantErr: true},
		{in: "8589934592g", wantErr: true}, // 2^63 exactly
		{in: "8589934591g", want: 8589934591 << 30},
		{in: "9223372036854775807", want: 1<<63 - 1},
	} {
		got, err := ParseSize(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseSize(%q) = %d, want error", tc.in, got)
			} else if !strings.Contains(err.Error(), strconv.Quote(tc.in)) {
				t.Errorf("ParseSize(%q): error %q does not quote the input", tc.in, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSize(%q): %v", tc.in, err)
		} else if got != tc.want {
			t.Errorf("ParseSize(%q) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestOpenRejectsUnknown(t *testing.T) {
	if _, err := Open("bogus:/x"); err == nil {
		t.Error("Open(bogus:) succeeded")
	}
	if _, err := Open("mem:?frobnicate=1"); err == nil {
		t.Error("Open with unknown option succeeded")
	}
	if _, err := Open("mem:/should/not/have/path"); err == nil {
		t.Error("Open(mem:) with path succeeded")
	}
	if _, err := Open("file:"); err == nil {
		t.Error("Open(file:) without directory succeeded")
	}
	for _, u := range []string{"mem:?cache=banana", "mem:?cache=-5mb", "mem:?cache=9999999999gb"} {
		if s, err := Open(u); err == nil {
			t.Errorf("Open(%q) = %T, want a bad cache size error", u, s)
		}
	}
}

func TestOpenMemWithCache(t *testing.T) {
	s, err := Open("mem:?cache=1kb")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, ok := s.(*CacheStore); !ok {
		t.Fatalf("Open(mem:?cache=1kb) = %T, want *CacheStore", s)
	}
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get("k"); err != nil || string(got) != "v" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if err := CloseStore(s); err != nil {
		t.Fatalf("CloseStore: %v", err)
	}
}

func TestFindScrubberThroughChain(t *testing.T) {
	cs := NewChecksumStore(NewMemStore())
	stack := NewCacheStore(NewRetryStore(cs), 1<<10)
	sc, ok := findScrubber(stack.Unwrap())
	if !ok {
		t.Fatal("findScrubber failed to reach the checksum layer")
	}
	if sc.(*ChecksumStore) != cs {
		t.Fatalf("findScrubber = %T (%p), want %p", sc, sc, cs)
	}
	if _, ok := findScrubber(NewMemStore()); ok {
		t.Fatal("findScrubber found a scrubber on a bare MemStore")
	}
}
