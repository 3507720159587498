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
package blockio

import (
	"bufio"
	"bytes"
	"encoding/json"
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

// TxBlock wraps transaction rows as a Block.
func TxBlock(rows [][]itemset.Item) Block {
	txs := make([][]int32, len(rows))
	for i, row := range rows {
		tx := make([]int32, len(row))
		for j, it := range row {
			tx[j] = int32(it)
		}
		txs[i] = tx
	}
	if txs == nil {
		txs = [][]int32{}
	}
	return Block{Txs: txs}
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

// Items converts the transaction payload to miner rows.
func (b Block) Items() [][]itemset.Item {
	rows := make([][]itemset.Item, len(b.Txs))
	for i, tx := range b.Txs {
		row := make([]itemset.Item, len(tx))
		for j, it := range tx {
			row[j] = itemset.Item(it)
		}
		rows[i] = row
	}
	return rows
}

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
func (b Block) MarshalJSON() ([]byte, error) {
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

// Encoder writes a block stream, one JSON object per line.
type Encoder struct {
	enc *json.Encoder
}

// NewEncoder returns an Encoder writing to w.
func NewEncoder(w io.Writer) *Encoder { return &Encoder{enc: json.NewEncoder(w)} }

// Encode appends one block to the stream.
func (e *Encoder) Encode(b Block) error {
	if err := b.Validate(); err != nil {
		return err
	}
	return e.enc.Encode(b)
}

// LineDecoder reads a block stream one line at a time with a hard cap on
// the line length, so a hostile or misbehaving client cannot make the
// server buffer an unbounded JSON token. It enforces the strict NDJSON
// shape: exactly one JSON object per newline-terminated line (blank lines
// are skipped). A line over the cap fails with ErrLineTooLong.
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

// Next returns the next block of the stream, or io.EOF at its end.
func (d *LineDecoder) Next() (Block, error) {
	var b Block
	for d.sc.Scan() {
		line := bytes.TrimSpace(d.sc.Bytes())
		if len(line) == 0 {
			continue
		}
		d.n++
		dec := json.NewDecoder(bytes.NewReader(line))
		// Item ids and coordinates fit the declared types exactly; unknown
		// fields are configuration mistakes worth failing loudly on.
		dec.DisallowUnknownFields()
		if err := dec.Decode(&b); err != nil {
			return b, fmt.Errorf("blockio: block %d: %w", d.n, err)
		}
		// Anything after the object on the same line is a framing error.
		if dec.More() {
			return b, fmt.Errorf("blockio: block %d: trailing data after the JSON object", d.n)
		}
		if err := b.Validate(); err != nil {
			return b, fmt.Errorf("blockio: block %d: %w", d.n, err)
		}
		return b, nil
	}
	if err := d.sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return b, fmt.Errorf("%w (cap %d bytes, around block %d)", ErrLineTooLong, d.max, d.n+1)
		}
		return b, fmt.Errorf("blockio: reading block %d: %w", d.n+1, err)
	}
	return b, io.EOF
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
