package blockio

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
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
		// What encoding/json took and the block grammar does not.
		"repeated member":     `{"txs":[[1]],"txs":[[2,3]]}`,
		"escaped name":        `{"t\u0078s":[[1]]}`,
		"case-folded name":    `{"TXS":[[1]]}`,
		"null row":            `{"txs":[null]}`,
		"null payload":        `{"points":null,"txs":[]}`,
		"null seq":            `{"seq":null,"txs":[]}`,
		"negative item":       `{"txs":[[-1]]}`,
		"negative zero item":  `{"txs":[[-0]]}`,
		"fractional item":     `{"txs":[[1.0]]}`,
		"exponent item":       `{"txs":[[1e3]]}`,
		"item over int32":     `{"txs":[[2147483648]]}`,
		"leading zero":        `{"txs":[[01]]}`,
		"quoted item":         `{"txs":[["1"]]}`,
		"flat row":            `{"txs":[1,2]}`,
		"trailing comma":      `{"txs":[[1,]]}`,
		"trailing brace":      `{"txs":[[1]]}}`,
		"trailing bracket":    `{"txs":[[1]]}]`,
		"negative seq":        `{"seq":-1,"txs":[]}`,
		"seq over uint64":     `{"seq":18446744073709551616,"txs":[]}`,
		"fractional seq":      `{"seq":1.5,"txs":[]}`,
		"bare array":          `[[1]]`,
		"float out of range":  `{"points":[[1e999]]}`,
		"float leading zero":  `{"points":[[00.5]]}`,
		"float no fraction":   `{"points":[[1.]]}`,
		"float no exponent":   `{"points":[[1e]]}`,
		"float bare minus":    `{"points":[[-]]}`,
		"non-JSON whitespace": "{\"txs\":\v[[1]]}",
	}
	for name, in := range cases {
		if _, err := ReadAll(strings.NewReader(in)); err == nil {
			t.Errorf("%s: %s decoded without error", name, in)
		}
	}
}

// TestDecodeAcceptsTheGrammar: members in any order, JSON whitespace between
// any two tokens, the extremes of every number.
func TestDecodeAcceptsTheGrammar(t *testing.T) {
	cases := map[string]Block{
		`{"txs":[]}`:   {Txs: [][]int32{}},
		`{"txs":[[]]}`: {Txs: [][]int32{{}}},
		`{"txs":[[0],[2147483647,7]],"seq":18446744073709551615}`: {Seq: math.MaxUint64, Txs: [][]int32{{0}, {2147483647, 7}}},
		"{ \"seq\" : 3 ,\t\"txs\" : [ [ 1 , 2 ] , [ ] ] }\r":      {Seq: 3, Txs: [][]int32{{1, 2}, {}}},
		`{"seq":0,"points":[[-0.5,1e-7,2E+3,0,-0],[]]}`:           {Points: [][]float64{{-0.5, 1e-7, 2000, 0, math.Copysign(0, -1)}, {}}},
	}
	for in, want := range cases {
		got, err := ReadAll(strings.NewReader(in))
		if err != nil || len(got) != 1 || !reflect.DeepEqual(got[0], want) {
			t.Errorf("%s decoded to %+v, %v; want %+v", in, got, err, want)
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

// streamCorpus seeds both fuzz targets: streams and the caps to read them
// under.
var streamCorpus = []struct {
	data  string
	limit int
}{
	{"{\"seq\":1,\"txs\":[[1,2]]}\n\n{\"points\":[[0.5,-1e3]]}\r\n", 64},
	{`{"txs":[[1]]} {"txs":[[2]]}` + "\n", 1024},
	{`{"txs":[null],"seq":0}` + "\n" + `{"txs":[[1]],"txs":[[2,3]]}`, 0},
	{`{"txs":[[` + strings.Repeat("1,", 200) + `1]]}` + "\n" + `{"txs":[]}` + "\n", 32},
	{"{\"points\":null,\"txs\":[]}\n{}\n", -5},
}

// FuzzLineDecoder feeds arbitrary bytes through arbitrary caps. The stream
// must end in an error or io.EOF, never a panic; every block returned on the
// way passes Validate, comes from a line no longer than the cap — the i-th
// block is the i-th non-blank line, counted here independently — and
// re-encodes to a line that decodes to an equal block; and the scanner's
// buffer never grows past the cap.
func FuzzLineDecoder(f *testing.F) {
	for _, seed := range streamCorpus {
		f.Add([]byte(seed.data), seed.limit)
	}
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

// jsonBlock is the block as encoding/json wrote it before the codec was
// written by hand: the reference of FuzzBlockCodecAgainstJSON.
func jsonBlock(b Block) ([]byte, error) {
	if b.Txs != nil {
		return json.Marshal(struct {
			Seq uint64    `json:"seq,omitempty"`
			Txs [][]int32 `json:"txs"`
		}{b.Seq, b.Txs})
	}
	return json.Marshal(struct {
		Seq    uint64      `json:"seq,omitempty"`
		Points [][]float64 `json:"points"`
	}{b.Seq, b.Points})
}

// FuzzBlockCodecAgainstJSON holds the hand-written codec to encoding/json in
// both directions, never panicking. Every line of the input the scanner
// accepts, encoding/json with DisallowUnknownFields accepts as the same
// block: the scanner's language is a subset. And every valid block — the
// accepted ones, and a transaction and a point block cut from the input's
// own bytes — encodes to exactly the bytes json.Marshal gives, or fails
// where it fails (a NaN or infinite coordinate).
func FuzzBlockCodecAgainstJSON(f *testing.F) {
	for _, seed := range streamCorpus {
		f.Add([]byte(seed.data))
	}
	f.Add([]byte(`{"points":[[1e21,1e-7,123456789.125,-0,5e-324]],"seq":9}`))
	f.Add([]byte("{ \"txs\" : [ [ 0 , 2147483647 ] , [ ] ] }"))
	f.Fuzz(func(t *testing.T, data []byte) {
		sameAsJSON := func(b Block) {
			want, wantErr := jsonBlock(b)
			var got bytes.Buffer
			if err := NewEncoder(&got).Encode(b); (err != nil) != (wantErr != nil) {
				t.Fatalf("Encode(%+v) = %v where json.Marshal = %v", b, err, wantErr)
			} else if err == nil && got.String() != string(want)+"\n" {
				t.Fatalf("Encode(%+v) = %q, json.Marshal = %q", b, got.String(), want)
			}
		}
		for _, line := range bytes.Split(data, []byte("\n")) {
			if line = bytes.TrimSpace(line); len(line) == 0 {
				continue
			}
			got, err := parseBlock(line)
			if err != nil {
				continue
			}
			var want Block
			dec := json.NewDecoder(bytes.NewReader(line))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&want); err != nil || dec.More() {
				t.Fatalf("the scanner accepts %q and encoding/json does not: %v", line, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%q scanned to %+v, encoding/json decodes %+v", line, got, want)
			}
			if got.Validate() == nil {
				sameAsJSON(got)
			}
		}
		// The input's bytes as a block of each kind: a row ends at each byte
		// that is a multiple of five.
		tx, pts := Block{Seq: uint64(len(data)), Txs: [][]int32{}}, Block{Points: [][]float64{}}
		var row []itemset.Item
		for i, c := range data {
			row = append(row, itemset.Item(c)<<(c%24))
			if c%5 == 0 {
				tx.Txs = append(tx.Txs, TxBlock([][]itemset.Item{row}).Txs[0])
				row = row[:0]
			}
			if i+8 <= len(data) && c%3 == 0 {
				x := math.Float64frombits(uint64(c) | uint64(data[i+1])<<8 | uint64(data[i+2])<<16 | uint64(data[i+3])<<24 |
					uint64(data[i+4])<<32 | uint64(data[i+5])<<40 | uint64(data[i+6])<<48 | uint64(data[i+7])<<56)
				pts.Points = append(pts.Points, []float64{x, float64(c) / 7})
			}
		}
		sameAsJSON(tx)
		sameAsJSON(pts)
	})
}

// wireLine is one encoded transaction block of n rows of about twenty items,
// the shape of the gated workloads' blocks.
func wireLine(tb testing.TB, n int) (Block, []byte) {
	rng := rand.New(rand.NewSource(1))
	rows := make([][]itemset.Item, n)
	for i := range rows {
		rows[i] = make([]itemset.Item, 1+rng.Intn(40))
		next := itemset.Item(0)
		for j := range rows[i] {
			next += itemset.Item(1 + rng.Intn(50))
			rows[i][j] = next
		}
	}
	b := TxBlock(rows)
	var wire bytes.Buffer
	if err := NewEncoder(&wire).Encode(b); err != nil {
		tb.Fatal(err)
	}
	return b, wire.Bytes()
}

// repeat reads data over and over: an endless stream of one line.
type repeat struct {
	data []byte
	off  int
}

func (r *repeat) Read(p []byte) (int, error) {
	n := copy(p, r.data[r.off:])
	r.off = (r.off + n) % len(r.data)
	return n, nil
}

// TestLineDecoderAllocs: a decoded block is one slab of items and one of row
// headers, whatever its row count; the ceiling leaves room for the scanner.
func TestLineDecoderAllocs(t *testing.T) {
	for _, n := range []int{100, 4000} {
		want, line := wireLine(t, n)
		d := NewLineDecoder(&repeat{data: line}, 0)
		var got Block
		allocs := testing.AllocsPerRun(10, func() {
			var err error
			if got, err = d.Next(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 8 {
			t.Errorf("Next on a line of %d transactions: %v allocations, want at most 8", n, allocs)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("a line of %d transactions does not decode to the block encoded", n)
		}
	}
}

// TestRowsAreCapped: rows built by the decoder, by TxBlock and by Items share
// a backing array, so each is capped at its length — growing one reallocates
// it and cannot write into its neighbour — and none aliases its source.
func TestRowsAreCapped(t *testing.T) {
	src := [][]itemset.Item{{1, 2}, {}, {3}, {4, 5, 6}}
	wrapped := TxBlock(src)
	src[0][0] = 99
	if wrapped.Txs[0][0] != 1 {
		t.Fatalf("TxBlock aliases the caller's rows")
	}
	decoded, err := ReadAll(strings.NewReader(`{"txs":[[1,2],[],[3],[4,5,6]]}`))
	if err != nil {
		t.Fatal(err)
	}
	items := decoded[0].Items()
	for i := range items {
		_ = append(items[i], -1)
		_ = append(wrapped.Txs[i], -1)
		_ = append(decoded[0].Txs[i], -1)
	}
	want := [][]int32{{1, 2}, {}, {3}, {4, 5, 6}}
	if !reflect.DeepEqual(wrapped.Txs, want) || !reflect.DeepEqual(decoded[0].Txs, want) {
		t.Fatalf("an append to one row overwrote another: %v, %v", wrapped.Txs, decoded[0].Txs)
	}
	if !reflect.DeepEqual(items, [][]itemset.Item{{1, 2}, {}, {3}, {4, 5, 6}}) {
		t.Fatalf("an append to one row of Items overwrote another: %v", items)
	}
}

func BenchmarkLineDecoder(b *testing.B) {
	_, line := wireLine(b, 4000)
	b.SetBytes(int64(len(line)))
	b.ReportAllocs()
	d := NewLineDecoder(&repeat{data: line}, 16<<20)
	for b.Loop() {
		if _, err := d.Next(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncoder(b *testing.B) {
	blk, line := wireLine(b, 4000)
	b.SetBytes(int64(len(line)))
	b.ReportAllocs()
	enc := NewEncoder(io.Discard)
	for b.Loop() {
		if err := enc.Encode(blk); err != nil {
			b.Fatal(err)
		}
	}
}
