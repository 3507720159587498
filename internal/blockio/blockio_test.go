package blockio

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"github.com/demon-mining/demon/internal/cf"
	"github.com/demon-mining/demon/internal/itemset"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	blocks := []Block{
		TxBlock([][]itemset.Item{{1, 2, 3}, {2, 4}}),
		TxBlock(nil), // an empty block is a valid quiet period
		PointBlock([]cf.Point{{0.5, -1.25}, {3, 4}}),
	}
	for _, b := range blocks {
		if err := enc.Encode(b); err != nil {
			t.Fatalf("encode: %v", err)
		}
	}

	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(blocks) {
		t.Fatalf("got %d blocks, want %d", len(got), len(blocks))
	}
	if got[0].Kind() != "tx" || got[1].Kind() != "tx" || got[2].Kind() != "points" {
		t.Fatalf("kinds = %s %s %s", got[0].Kind(), got[1].Kind(), got[2].Kind())
	}
	rows := got[0].Items()
	if len(rows) != 2 || len(rows[0]) != 3 || rows[0][2] != 3 || rows[1][1] != 4 {
		t.Fatalf("tx rows mangled: %v", rows)
	}
	if n := len(got[1].Items()); n != 0 {
		t.Fatalf("empty block decoded to %d rows", n)
	}
	pts := got[2].CFPoints()
	if len(pts) != 2 || pts[0][1] != -1.25 {
		t.Fatalf("points mangled: %v", pts)
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"both payloads":  `{"txs":[[1]],"points":[[1.0]]}`,
		"empty object":   `{}`,
		"unknown field":  `{"transactions":[[1]]}`,
		"truncated json": `{"txs":[[1`,
	}
	for name, in := range cases {
		if _, err := ReadAll(strings.NewReader(in)); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestLineDecoderStopsAtEOF(t *testing.T) {
	for _, in := range []string{"", "\n\n", " \r\n"} { // empty and blank-only streams
		d := NewLineDecoder(strings.NewReader(in), 0)
		if _, err := d.Next(); err != io.EOF {
			t.Fatalf("Next on %q = %v, want io.EOF", in, err)
		}
	}
}

func TestSeqRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	b := TxBlock([][]itemset.Item{{1, 2}})
	b.Seq = 7
	if err := enc.Encode(b); err != nil {
		t.Fatalf("encode: %v", err)
	}
	p := PointBlock([]cf.Point{{1, 2}})
	p.Seq = 8
	if err := enc.Encode(p); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if err := enc.Encode(TxBlock(nil)); err != nil { // unsequenced stays seq-less
		t.Fatalf("encode: %v", err)
	}
	wire := buf.String()
	if !strings.Contains(wire, `"seq":7`) || !strings.Contains(wire, `"seq":8`) {
		t.Fatalf("sequence numbers missing from wire: %s", wire)
	}
	if strings.Count(wire, `"seq"`) != 2 {
		t.Fatalf("unsequenced block grew a seq field: %s", wire)
	}
	got, err := ReadAll(strings.NewReader(wire))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got[0].Seq != 7 || got[1].Seq != 8 || got[2].Seq != 0 {
		t.Fatalf("seqs = %d %d %d, want 7 8 0", got[0].Seq, got[1].Seq, got[2].Seq)
	}
}

func TestLineDecoder(t *testing.T) {
	in := "{\"seq\":1,\"txs\":[[1,2]]}\n\n{\"points\":[[0.5]]}\n"
	d := NewLineDecoder(strings.NewReader(in), 1024)
	b1, err := d.Next()
	if err != nil || b1.Seq != 1 || b1.Kind() != "tx" {
		t.Fatalf("first block = %+v, %v", b1, err)
	}
	b2, err := d.Next()
	if err != nil || b2.Kind() != "points" {
		t.Fatalf("second block = %+v, %v", b2, err)
	}
	if _, err := d.Next(); err != io.EOF {
		t.Fatalf("Next past end = %v, want io.EOF", err)
	}
}

func TestLineDecoderCapsLineLength(t *testing.T) {
	long := `{"txs":[[` + strings.Repeat("1,", 4000) + `1]]}`
	d := NewLineDecoder(strings.NewReader(long+"\n"), 256)
	if _, err := d.Next(); !errors.Is(err, ErrLineTooLong) {
		t.Fatalf("oversized line = %v, want ErrLineTooLong", err)
	}
}

// TestLineDecoderUncapped: a non-positive cap is no cap — a block line far
// past bufio's 64 KiB default token size decodes.
func TestLineDecoderUncapped(t *testing.T) {
	long := `{"txs":[[` + strings.Repeat("1,", 100_000) + `1]]}`
	for _, limit := range []int{0, -1} {
		b, err := NewLineDecoder(strings.NewReader(long+"\n"), limit).Next()
		if err != nil || len(b.Txs) != 1 || len(b.Txs[0]) != 100_001 {
			t.Fatalf("cap %d: %d transactions, %v", limit, len(b.Txs), err)
		}
	}
}

func TestLineDecoderRejectsTrailingData(t *testing.T) {
	d := NewLineDecoder(strings.NewReader(`{"txs":[[1]]} {"txs":[[2]]}`+"\n"), 1024)
	if _, err := d.Next(); err == nil {
		t.Fatalf("two objects on one line decoded without error")
	}
}

// FuzzLineDecoder feeds arbitrary bytes through arbitrary caps. The stream
// must end in an error or io.EOF, never a panic; every block returned on the
// way passes Validate, comes from a line no longer than the cap — the i-th
// block is the i-th non-blank line, counted here independently — and
// re-encodes to a line that decodes to an equal block; and the scanner's
// buffer never grows past the cap.
func FuzzLineDecoder(f *testing.F) {
	f.Add([]byte("{\"seq\":1,\"txs\":[[1,2]]}\n\n{\"points\":[[0.5,-1e3]]}\r\n"), 64)
	f.Add([]byte(`{"txs":[[1]]} {"txs":[[2]]}`+"\n"), 1024)
	f.Add([]byte(`{"txs":[null],"seq":0}`+"\n"+`{"txs":[[1]],"txs":[[2,3]]}`), 0)
	f.Add([]byte(`{"txs":[[`+strings.Repeat("1,", 200)+`1]]}`+"\n"+`{"txs":[]}`+"\n"), 32)
	f.Add([]byte("{\"points\":null,\"txs\":[]}\n{}\n"), -5)
	f.Fuzz(func(t *testing.T, data []byte, limit int) {
		var lines [][]byte // the non-blank lines, as the decoder should see them
		for _, l := range bytes.Split(data, []byte("\n")) {
			if l = bytes.TrimSpace(l); len(l) > 0 {
				lines = append(lines, l)
			}
		}
		d := NewLineDecoder(bytes.NewReader(data), limit)
		for i := 0; ; i++ {
			b, err := d.Next()
			if got := cap(d.sc.Bytes()); limit > 0 && got > limit {
				t.Fatalf("scanner buffer of %d bytes under a cap of %d", got, limit)
			}
			if err != nil {
				if limit <= 0 && errors.Is(err, ErrLineTooLong) {
					t.Fatalf("uncapped decoder reported %v", err)
				}
				return
			}
			if i >= len(lines) {
				t.Fatalf("block %d returned from a stream of %d non-blank lines", i+1, len(lines))
			}
			if limit > 0 && len(lines[i]) > limit {
				t.Fatalf("block %d decoded from a %d-byte line under a cap of %d", i+1, len(lines[i]), limit)
			}
			if err := b.Validate(); err != nil {
				t.Fatalf("block %d returned invalid: %v", i+1, err)
			}
			var wire bytes.Buffer
			if err := NewEncoder(&wire).Encode(b); err != nil {
				t.Fatalf("block %d does not re-encode: %v", i+1, err)
			}
			again, err := NewLineDecoder(&wire, 0).Next()
			if err != nil || !reflect.DeepEqual(again, b) {
				t.Fatalf("block %d changed across a re-encode: %+v -> %+v (%v)", i+1, b, again, err)
			}
		}
	})
}
