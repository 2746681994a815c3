package server

import (
	"fmt"
	"math"
	"strconv"

	"fungusdb/internal/jsonscalar"
	"fungusdb/internal/tuple"
)

// appendRowJSON appends one /v2/query row line — a JSON array of the
// row's scalars plus the newline — to buf. The bytes are exactly what
// encoding/json's Encoder writes for the same values boxed into a
// []any (HTML-safe string escaping included), without the boxing or
// the reflection; FuzzAppendRowJSON holds the two together. A NaN or
// infinite FLOAT has no JSON encoding: buf comes back unchanged with
// the error encoding/json reports for it.
func appendRowJSON(buf []byte, row []tuple.Value) ([]byte, error) {
	start := len(buf)
	buf = append(buf, '[')
	for i, v := range row {
		if i > 0 {
			buf = append(buf, ',')
		}
		switch v.Kind() {
		case tuple.KindInt:
			buf = strconv.AppendInt(buf, v.AsInt(), 10)
		case tuple.KindFloat:
			f := v.AsFloat()
			if math.IsInf(f, 0) || math.IsNaN(f) {
				return buf[:start], fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
			}
			buf = jsonscalar.AppendFloat(buf, f)
		case tuple.KindString:
			buf = jsonscalar.AppendString(buf, v.AsString())
		case tuple.KindBool:
			buf = strconv.AppendBool(buf, v.AsBool())
		default:
			buf = append(buf, "null"...)
		}
	}
	return append(buf, ']', '\n'), nil
}
