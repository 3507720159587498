// Package blockio is the NDJSON block-stream wire format shared by
// demon-datagen, demon-feed and demon-serve: one JSON object per line, one
// block per object. A transaction block is {"txs": [[1,2,3],[2,4]]}; a point
// block is {"points": [[0.1,0.2],[1.2,0.3]]}. Blocks arrive in ingestion
// order, so a stream is exactly the systematically evolving database of the
// paper — a generator can pipe blocks straight into a resident server.
//
// A block may additionally carry a per-namespace monotonic sequence number
// ({"seq": 7, "txs": ...}). Sequence numbers start at 1 and increase by one
// per block; they let the server acknowledge re-sent duplicates as no-ops
// and reject gaps, which is what makes retrying an ambiguously failed send
// safe (see internal/serve and internal/client).
//
// Both directions are written by hand for this one grammar (codec.go): the
// encoder appends the bytes encoding/json would, the scanner accepts a strict
// subset of what encoding/json accepted and lays a block's rows out in one
// backing array.
package blockio

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"

	"github.com/demon-mining/demon/internal/cf"
	"github.com/demon-mining/demon/internal/itemset"
)

// ErrLineTooLong reports an NDJSON line exceeding a LineDecoder's cap.
var ErrLineTooLong = errors.New("blockio: NDJSON line exceeds the configured maximum length")

// Block is one block of a stream: exactly one of Txs or Points is set.
type Block struct {
	// Seq is the block's optional sequence number within its namespace's
	// stream; zero means unsequenced. Sequenced streams start at 1 and
	// increase by exactly one per block.
	Seq uint64 `json:"seq,omitempty"`
	// Txs is a transaction block: one item-id list per transaction.
	Txs [][]int32 `json:"txs,omitempty"`
	// Points is a point block: one coordinate list per point.
	Points [][]float64 `json:"points,omitempty"`
}

// Kind names the block's payload: "tx", "points", or "empty".
func (b Block) Kind() string {
	switch {
	case b.Txs != nil:
		return "tx"
	case b.Points != nil:
		return "points"
	default:
		return "empty"
	}
}

// Validate rejects blocks that set both payloads or neither. An empty
// payload of the right kind (zero transactions) is valid — evolving
// databases do have quiet periods.
func (b Block) Validate() error {
	if b.Txs != nil && b.Points != nil {
		return fmt.Errorf("blockio: block sets both txs and points")
	}
	if b.Txs == nil && b.Points == nil {
		return fmt.Errorf("blockio: block sets neither txs nor points")
	}
	return nil
}

// TxBlock wraps transaction rows as a Block. The rows are copied, into one
// backing array, so the block never aliases the caller's.
func TxBlock(rows [][]itemset.Item) Block {
	return Block{Txs: slabRows[int32](rows)}
}

// slabRows copies rows, converting the elements, into one exactly-sized
// backing array. Each row of the result is capped at its own length, so an
// append to one reallocates instead of overwriting its neighbour.
func slabRows[T, F int32 | itemset.Item](rows [][]F) [][]T {
	total := 0
	for _, row := range rows {
		total += len(row)
	}
	slab := make([]T, 0, total)
	out := make([][]T, len(rows))
	for i, row := range rows {
		start := len(slab)
		for _, x := range row {
			slab = append(slab, T(x))
		}
		out[i] = slab[start:len(slab):len(slab)]
	}
	return out
}

// PointBlock wraps points as a Block.
func PointBlock(pts []cf.Point) Block {
	out := make([][]float64, len(pts))
	for i, p := range pts {
		out[i] = []float64(p)
	}
	if out == nil {
		out = [][]float64{}
	}
	return Block{Points: out}
}

// Items converts the transaction payload to miner rows: one copy of the
// whole block into one backing array, not one per row.
func (b Block) Items() [][]itemset.Item { return slabRows[itemset.Item](b.Txs) }

// CFPoints converts the point payload to miner points.
func (b Block) CFPoints() []cf.Point {
	pts := make([]cf.Point, len(b.Points))
	for i, p := range b.Points {
		pts[i] = cf.Point(p)
	}
	return pts
}

// MarshalJSON emits exactly the one payload field that is set, so an empty
// transaction block round-trips as {"txs":[]} instead of being collapsed to
// an invalid {} by omitempty. The sequence number is emitted only when set.
func (b Block) MarshalJSON() ([]byte, error) { return appendBlock(nil, b) }

// Encoder writes a block stream, one JSON object per line.
type Encoder struct {
	w   io.Writer
	buf []byte // the line under construction, reused from block to block
}

// NewEncoder returns an Encoder writing to w.
func NewEncoder(w io.Writer) *Encoder { return &Encoder{w: w} }

// Encode appends one block to the stream, in one Write.
func (e *Encoder) Encode(b Block) error {
	if err := b.Validate(); err != nil {
		return err
	}
	if e.buf == nil {
		// append grows a large slice by a quarter at a time: building the
		// first line from nothing would copy it several times over.
		e.buf = make([]byte, 0, lineSize(b))
	}
	buf, err := appendBlock(e.buf[:0], b)
	if err != nil {
		return err
	}
	e.buf = append(buf, '\n')
	_, err = e.w.Write(e.buf)
	return err
}

// LineDecoder reads a block stream one line at a time with a hard cap on
// the line length, so a hostile or misbehaving client cannot make the
// server buffer an unbounded JSON token. It enforces the strict NDJSON
// shape: exactly one block object, in the grammar of codec.go, per
// newline-terminated line (blank lines are skipped). A line over the cap
// fails with ErrLineTooLong.
type LineDecoder struct {
	sc  *bufio.Scanner
	n   int
	max int
}

// NewLineDecoder returns a LineDecoder reading from r with lines capped at
// maxLine bytes; a non-positive cap is no cap, the "0 = unlimited" of
// demon-feed's and demon-serve's -max-line-bytes.
func NewLineDecoder(r io.Reader, maxLine int) *LineDecoder {
	if maxLine <= 0 {
		maxLine = math.MaxInt
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, min(64*1024, maxLine)), maxLine)
	return &LineDecoder{sc: sc, max: maxLine}
}

// Next returns the next block of the stream, or io.EOF at its end. The block
// owns its memory: nothing in it aliases the decoder's line buffer.
func (d *LineDecoder) Next() (Block, error) {
	for d.sc.Scan() {
		line := bytes.TrimSpace(d.sc.Bytes())
		if len(line) == 0 {
			continue
		}
		d.n++
		b, err := parseBlock(line)
		if err == nil {
			err = b.Validate()
		}
		if err != nil {
			return Block{}, fmt.Errorf("blockio: block %d: %w", d.n, err)
		}
		return b, nil
	}
	if err := d.sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return Block{}, fmt.Errorf("%w (cap %d bytes, around block %d)", ErrLineTooLong, d.max, d.n+1)
		}
		return Block{}, fmt.Errorf("blockio: reading block %d: %w", d.n+1, err)
	}
	return Block{}, io.EOF
}

// ReadAll decodes the whole stream, whatever the length of its lines.
func ReadAll(r io.Reader) ([]Block, error) {
	d := NewLineDecoder(r, 0)
	var out []Block
	for {
		b, err := d.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
}
