package server

import (
	"bytes"
	"strconv"

	"fungusdb/internal/jsonscalar"
	"fungusdb/internal/tuple"
)

// decodeInsertBody decodes a POST /v1/tables/{t}/rows body in one pass,
// straight into one typed column per schema column; a STRING column
// comes out as codes into a dictionary of the request's distinct
// strings. It accepts only bodies the reference decode (decodeRows)
// takes without error, and yields exactly the rows the reference
// yields: an object whose one key is "rows", holding at least one row
// of the schema's arity, every value of its column's kind, every string
// free of escapes and of valid UTF-8, JSON whitespace anywhere between
// tokens and nothing after the object. ok is false for anything else;
// the caller then runs the reference, which either decodes the body or
// words the error. FuzzInsertBody holds the two together.
func decodeInsertBody(data []byte, schema *tuple.Schema) (cols []tuple.ColView, n int, ok bool) {
	s := bodyScanner{data: data}
	if !s.eat('{') || !s.eat('"') || !s.literal(`rows"`) || !s.eat(':') || !s.eat('[') {
		return nil, 0, false
	}
	cols = make([]tuple.ColView, schema.Len())
	dicts := make([]map[string]uint32, schema.Len())
	for c := range cols {
		cols[c].Kind = schema.Column(c).Kind
		if cols[c].Kind == tuple.KindString {
			dicts[c] = make(map[string]uint32)
		}
	}
	rowsStart := s.i
	for {
		if !s.eat('[') {
			return nil, 0, false
		}
		for c := range cols {
			if c > 0 && !s.eat(',') {
				return nil, 0, false
			}
			s.space()
			if !s.value(&cols[c], dicts[c]) {
				return nil, 0, false
			}
		}
		if !s.eat(']') {
			return nil, 0, false
		}
		if n++; n == 1 {
			// The rows of one batch encode to about the same length:
			// size the columns once from the first.
			presize(cols, (len(data)-rowsStart)/(s.i-rowsStart+1)*9/8+1)
		}
		if s.eat(']') {
			break
		}
		if !s.eat(',') {
			return nil, 0, false
		}
	}
	if !s.eat('}') {
		return nil, 0, false
	}
	s.space()
	return cols, n, s.i == len(data)
}

// bodyScanner walks an insert body. Every method reports false, with
// the position unspecified, when the bytes ahead are not what it scans.
type bodyScanner struct {
	data []byte
	i    int
}

// space skips JSON whitespace.
func (s *bodyScanner) space() {
	for s.i < len(s.data) {
		switch s.data[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// eat skips whitespace, then the byte c.
func (s *bodyScanner) eat(c byte) bool {
	s.space()
	if s.i < len(s.data) && s.data[s.i] == c {
		s.i++
		return true
	}
	return false
}

// literal skips lit, which must start right here.
func (s *bodyScanner) literal(lit string) bool {
	if !bytes.HasPrefix(s.data[s.i:], []byte(lit)) {
		return false
	}
	s.i += len(lit)
	return true
}

// value appends the value starting here to col, which must take it
// the way decodeRow would: INT and FLOAT from a number read as a
// float64 (INT only when that float64 is integral), STRING from a
// string, BOOL from true or false.
func (s *bodyScanner) value(col *tuple.ColView, dict map[string]uint32) bool {
	switch col.Kind {
	case tuple.KindInt, tuple.KindFloat:
		end := jsonscalar.NumberEnd(s.data, s.i)
		if end < 0 {
			return false
		}
		f, err := strconv.ParseFloat(string(s.data[s.i:end]), 64)
		if err != nil {
			return false
		}
		s.i = end
		if col.Kind == tuple.KindFloat {
			col.Floats = append(col.Floats, f)
			return true
		}
		if f != float64(int64(f)) {
			return false
		}
		col.Ints = append(col.Ints, int64(f))
	case tuple.KindBool:
		switch {
		case s.literal("true"):
			col.Bools = append(col.Bools, true)
		case s.literal("false"):
			col.Bools = append(col.Bools, false)
		default:
			return false
		}
	case tuple.KindString:
		end := jsonscalar.StringEnd(s.data, s.i)
		if end < 0 {
			return false
		}
		raw := s.data[s.i+1 : end-1]
		s.i = end
		code, seen := dict[string(raw)]
		if !seen {
			// The string outlives the request (the store's dictionary
			// keeps it), so it is a copy, never a view of the body.
			str := string(raw)
			code = uint32(len(col.Dict))
			col.Dict = append(col.Dict, str)
			dict[str] = code
		}
		col.Codes = append(col.Codes, code)
	}
	return true
}

// presize gives every column room for rows values.
func presize(cols []tuple.ColView, rows int) {
	for c := range cols {
		col := &cols[c]
		switch col.Kind {
		case tuple.KindInt:
			col.Ints = append(make([]int64, 0, rows), col.Ints...)
		case tuple.KindFloat:
			col.Floats = append(make([]float64, 0, rows), col.Floats...)
		case tuple.KindBool:
			col.Bools = append(make([]bool, 0, rows), col.Bools...)
		case tuple.KindString:
			col.Codes = append(make([]uint32, 0, rows), col.Codes...)
		}
	}
}
