package blockio

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strconv"
)

// The block line, as the scanner accepts it. It is JSON, and a strict subset
// of the JSON the encoding/json decoder this replaces accepted:
//
//	line   = object
//	object = "{" [ member { "," member } ] "}"
//	member = `"seq"` ":" uint | `"txs"` ":" rows(item) | `"points"` ":" rows(number)
//	rows(v) = "[" [ row(v) { "," row(v) } ] "]"
//	row(v)  = "[" [ v { "," v } ] "]"
//	uint   = "0" | digit1-9 { digit }             (at most 2^64-1)
//	item   = uint                                  (at most 2^31-1)
//	number = a JSON number that fits a float64
//
// with JSON whitespace (space, tab, CR, LF) allowed between tokens. Rejected,
// though encoding/json took them: a member name that is unknown, repeated,
// written with an escape or in another case; null anywhere; an item that is
// negative (a miner's TID-list codec has no encoding for one), not an integer
// or out of range; anything after the object. A line must still set exactly
// one of txs and points (Block.Validate).

// appendBlock appends b as one JSON object, byte for byte what json.Marshal
// made of it — except that a nil row is [] and not null, which the scanner
// would refuse.
func appendBlock(buf []byte, b Block) ([]byte, error) {
	buf = append(buf, '{')
	if b.Seq != 0 {
		buf = append(buf, `"seq":`...)
		buf = strconv.AppendUint(buf, b.Seq, 10)
		buf = append(buf, ',')
	}
	if b.Txs != nil {
		buf = append(buf, `"txs":[`...)
		for i, row := range b.Txs {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, '[')
			for j, it := range row {
				if j > 0 {
					buf = append(buf, ',')
				}
				buf = appendItem(buf, it)
			}
			buf = append(buf, ']')
		}
		return append(buf, "]}"...), nil
	}
	buf = append(buf, `"points":[`...)
	for i, row := range b.Points {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '[')
		for j, x := range row {
			if j > 0 {
				buf = append(buf, ',')
			}
			if math.IsInf(x, 0) || math.IsNaN(x) {
				return nil, fmt.Errorf("blockio: point %d coordinate %d: %v has no JSON encoding", i, j, x)
			}
			buf = appendFloat(buf, x)
		}
		buf = append(buf, ']')
	}
	return append(buf, "]}"...), nil
}

// appendItem is strconv.AppendInt for the item ids there are — not negative —
// with the digits written where they go.
func appendItem(buf []byte, it int32) []byte {
	if it < 0 {
		return strconv.AppendInt(buf, int64(it), 10)
	}
	n := 1
	for v := uint32(it); v >= 10; v /= 10 {
		n++
	}
	buf = slices.Grow(buf, n)[:len(buf)+n]
	for i, v := len(buf)-1, uint32(it); ; i, v = i-1, v/10 {
		buf[i] = byte('0' + v%10)
		if v < 10 {
			return buf
		}
	}
}

// lineSize is the room b's line needs: for a transaction block its length
// and at most a byte a row more, for a point block a guess at twenty bytes a
// coordinate.
func lineSize(b Block) int {
	n := len(`{"seq":18446744073709551615,"points":[]}`) + 1
	for _, row := range b.Txs {
		n += 3 // the brackets and the comma after them
		for _, it := range row {
			n += 2 // a digit and a comma
			for ; it >= 10 || it < 0; it /= 10 {
				n++ // each further digit, and a sign
			}
		}
	}
	for _, row := range b.Points {
		n += 3 + 20*len(row)
	}
	return n
}

// appendFloat is encoding/json's float64 format: the shortest decimal that
// round-trips, in exponent form only below 1e-6 and from 1e21, the exponent
// not padded to two digits.
func appendFloat(buf []byte, x float64) []byte {
	format := byte('f')
	if abs := math.Abs(x); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	buf = strconv.AppendFloat(buf, x, format, -1, 64)
	if n := len(buf); format == 'e' && n >= 4 && buf[n-4] == 'e' && buf[n-3] == '-' && buf[n-2] == '0' {
		buf[n-2] = buf[n-1] // e-09 is e-9
		buf = buf[:n-1]
	}
	return buf
}

// scanner is a position in one block line.
type scanner struct {
	b []byte
	i int
}

// parseBlock scans one whole line, which the caller has trimmed.
func parseBlock(line []byte) (Block, error) {
	s := &scanner{b: line}
	var b Block
	var seen [3]bool // seq, txs, points
	if !s.eat('{') {
		return Block{}, s.expected("'{'")
	}
	s.space()
	for first := true; !s.eat('}'); first = false {
		if !first {
			if !s.eat(',') {
				return Block{}, s.expected("',' or '}'")
			}
			s.space()
		}
		name, err := s.name()
		if err != nil {
			return Block{}, err
		}
		member := -1
		switch string(name) {
		case "seq":
			member = 0
		case "txs":
			member = 1
		case "points":
			member = 2
		}
		if member < 0 {
			return Block{}, fmt.Errorf("unknown member %q", name)
		}
		if seen[member] {
			return Block{}, fmt.Errorf("member %q repeated", name)
		}
		seen[member] = true
		s.space()
		if !s.eat(':') {
			return Block{}, s.expected("':'")
		}
		s.space()
		switch member {
		case 0:
			b.Seq, err = s.uint(math.MaxUint64)
		case 1:
			b.Txs, err = scanRows(s, (*scanner).item)
		case 2:
			b.Points, err = scanRows(s, (*scanner).number)
		}
		if err != nil {
			return Block{}, fmt.Errorf("member %q: %w", name, err)
		}
		s.space()
	}
	if s.i != len(s.b) {
		return Block{}, fmt.Errorf("offset %d: trailing data after the block object", s.i)
	}
	return b, nil
}

// scanRows scans rows(v) into one backing array: its capacity is a bound
// taken from the line (every value but the first follows a comma, every row
// opens with a bracket) that is exact for a line of one member and no empty
// row, so the array is allocated once and nothing of it is zeroed for
// nothing. Rows are capped at their length: appending to one reallocates it
// and leaves the next row alone.
func scanRows[T int32 | float64](s *scanner, value func(*scanner) (T, error)) ([][]T, error) {
	if !s.eat('[') {
		return nil, s.expected("'['")
	}
	rest := s.b[s.i:]
	slab := make([]T, 0, min(bytes.Count(rest, []byte{','})+1, len(rest)/2+1))
	rows := make([][]T, 0, min(bytes.Count(rest, []byte{'['}), len(rest)/3+1))
	s.space()
	for first := true; !s.eat(']'); first = false {
		if !first {
			if !s.eat(',') {
				return nil, s.expected("',' or ']'")
			}
			s.space()
		}
		if !s.eat('[') {
			return nil, s.expected("'[' opening a row")
		}
		start := len(slab)
		s.space()
		for first := true; !s.eat(']'); first = false {
			if !first {
				if !s.eat(',') {
					return nil, s.expected("',' or ']'")
				}
				s.space()
			}
			v, err := value(s)
			if err != nil {
				return nil, err
			}
			slab = append(slab, v)
			s.space()
		}
		rows = append(rows, slab[start:len(slab):len(slab)])
		s.space()
	}
	return rows, nil
}

func (s *scanner) eat(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

func (s *scanner) space() {
	for s.i < len(s.b) && (s.b[s.i] == ' ' || s.b[s.i] == '\t' || s.b[s.i] == '\r' || s.b[s.i] == '\n') {
		s.i++
	}
}

func (s *scanner) expected(what string) error {
	if s.i >= len(s.b) {
		return fmt.Errorf("offset %d: expected %s, found the end of the line", s.i, what)
	}
	return fmt.Errorf("offset %d: expected %s, found %q", s.i, what, s.b[s.i])
}

// name scans a member name: a string with no escape in it, so that the bytes
// between the quotes are the name.
func (s *scanner) name() ([]byte, error) {
	if !s.eat('"') {
		return nil, s.expected("a member name")
	}
	start := s.i
	for ; s.i < len(s.b); s.i++ {
		switch s.b[s.i] {
		case '"':
			s.i++
			return s.b[start : s.i-1], nil
		case '\\':
			return nil, fmt.Errorf("offset %d: escape in a member name", s.i)
		}
	}
	return nil, s.expected("'\"' closing the member name")
}

// digits skips a run of decimal digits and returns its length.
func (s *scanner) digits() int {
	start := s.i
	for s.i < len(s.b) && s.b[s.i]-'0' <= 9 {
		s.i++
	}
	return s.i - start
}

// uint scans an unsigned integer of at most max.
func (s *scanner) uint(max uint64) (uint64, error) {
	b, start := s.b, s.i
	i, v, over := start, uint64(0), false
	for ; i < len(b); i++ {
		d := uint64(b[i] - '0')
		if d > 9 {
			break
		}
		// Nineteen digits fit a uint64 whatever they are; only a twentieth
		// can overflow it, and a twenty-first must.
		if n := i - start; n >= 19 && (n > 19 || v > (math.MaxUint64-d)/10) {
			over = true
		}
		v = v*10 + d
	}
	s.i = i
	switch n := i - start; {
	case n == 0:
		return 0, s.expected("an unsigned integer")
	case n > 1 && b[start] == '0':
		return 0, fmt.Errorf("offset %d: integer with a leading zero", start)
	case over || v > max:
		return 0, fmt.Errorf("offset %d: integer over %d", start, max)
	}
	if i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E') {
		return 0, fmt.Errorf("offset %d: expected an integer, found a fraction or exponent", i)
	}
	return v, nil
}

// item scans one item id.
func (s *scanner) item() (int32, error) {
	if s.i < len(s.b) && s.b[s.i] == '-' {
		return 0, fmt.Errorf("offset %d: negative item id", s.i)
	}
	v, err := s.uint(math.MaxInt32)
	return int32(v), err
}

// number scans one JSON number as a float64.
func (s *scanner) number() (float64, error) {
	start := s.i
	s.eat('-')
	if !s.eat('0') && s.digits() == 0 {
		return 0, s.expected("a number")
	}
	if s.eat('.') && s.digits() == 0 {
		return 0, s.expected("a digit after the decimal point")
	}
	if s.eat('e') || s.eat('E') {
		if !s.eat('+') {
			s.eat('-')
		}
		if s.digits() == 0 {
			return 0, s.expected("a digit in the exponent")
		}
	}
	x, err := strconv.ParseFloat(string(s.b[start:s.i]), 64)
	if err != nil {
		return 0, fmt.Errorf("offset %d: number %s does not fit a float64", start, s.b[start:s.i])
	}
	return x, nil
}
