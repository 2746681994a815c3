package server

import (
	"fmt"
	"math"
	"strconv"

	"fungusdb/internal/jsonscalar"
	"fungusdb/internal/query"
	"fungusdb/internal/tuple"
)

// appendRowJSON appends row k of b as one /v2/query row line — a JSON
// array of the row's scalars plus the newline — to buf. It reads each
// typed column's value as it lies in the block, without boxing it; only
// a boxed column (a computed target, a memory-backed answer) is
// dispatched on its value's kind. The bytes are exactly what
// encoding/json's Encoder writes for the same values boxed into a []any
// (HTML-safe string escaping included), without the boxing or the
// reflection; FuzzAppendRowJSON holds the two together. A NaN or
// infinite FLOAT has no JSON encoding: buf comes back unchanged with
// the error encoding/json reports for it.
func appendRowJSON(buf []byte, b *query.Block, k int) ([]byte, error) {
	start := len(buf)
	buf = append(buf, '[')
	for c := range b.Cols {
		if c > 0 {
			buf = append(buf, ',')
		}
		col := &b.Cols[c]
		var ok bool
		switch col.Kind {
		case tuple.KindInt:
			buf = strconv.AppendInt(buf, col.Ints[k], 10)
		case tuple.KindFloat:
			if buf, ok = appendFloat(buf, col.Floats[k]); !ok {
				return buf[:start], floatErr(col.Floats[k])
			}
		case tuple.KindString:
			buf = jsonscalar.AppendString(buf, col.Strs[k])
		case tuple.KindBool:
			buf = strconv.AppendBool(buf, col.Bools[k])
		default:
			if buf, ok = appendValue(buf, col.Vals[k]); !ok {
				return buf[:start], floatErr(col.Vals[k].AsFloat())
			}
		}
	}
	return append(buf, ']', '\n'), nil
}

// appendValue appends one boxed value; ok is false for a FLOAT that has
// no JSON encoding.
func appendValue(buf []byte, v tuple.Value) (_ []byte, ok bool) {
	switch v.Kind() {
	case tuple.KindInt:
		return strconv.AppendInt(buf, v.AsInt(), 10), true
	case tuple.KindFloat:
		return appendFloat(buf, v.AsFloat())
	case tuple.KindString:
		return jsonscalar.AppendString(buf, v.AsString()), true
	case tuple.KindBool:
		return strconv.AppendBool(buf, v.AsBool()), true
	}
	return append(buf, "null"...), true
}

// appendFloat appends f unless it is NaN or infinite.
func appendFloat(buf []byte, f float64) (_ []byte, ok bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return buf, false
	}
	return jsonscalar.AppendFloat(buf, f), true
}

// floatErr is encoding/json's error for a FLOAT it cannot encode.
func floatErr(f float64) error {
	return fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
}
