package client

import (
	"math"
	"slices"
	"strconv"

	"fungusdb/internal/jsonscalar"
)

// appendInsertBody appends the POST /v1/tables/{t}/rows body for rows
// to buf: the bytes json.Marshal(map[string]any{"rows": rows}) writes,
// appended instead of reflected. ok is false when a value is not a
// string, float64, bool, int, int64 or nil, or is a NaN or infinite
// float64; buf's contents are then unspecified and the caller marshals
// with encoding/json, which either encodes the value or words the error.
func appendInsertBody(buf []byte, rows [][]any) (out []byte, ok bool) {
	if rows == nil {
		return append(buf, `{"rows":null}`...), true
	}
	buf = append(buf, `{"rows":[`...)
	for r, row := range rows {
		if r > 0 {
			buf = append(buf, ',')
		}
		start := len(buf)
		if row == nil {
			buf = append(buf, "null"...)
		} else {
			buf = append(buf, '[')
			for i, v := range row {
				if i > 0 {
					buf = append(buf, ',')
				}
				if buf, ok = appendScalar(buf, v); !ok {
					return buf, false
				}
			}
			buf = append(buf, ']')
		}
		if r == 0 {
			// The rows of one batch encode to about the same length: size
			// the body once from the first, with an eighth to spare,
			// instead of growing it step by step.
			per := len(buf) - start + 1
			buf = slices.Grow(buf, per*(len(rows)-1)*9/8+2)
		}
	}
	return append(buf, "]}"...), true
}

func appendScalar(buf []byte, v any) ([]byte, bool) {
	switch x := v.(type) {
	case nil:
		return append(buf, "null"...), true
	case bool:
		return strconv.AppendBool(buf, x), true
	case string:
		return jsonscalar.AppendString(buf, x), true
	case float64:
		if math.IsInf(x, 0) || math.IsNaN(x) {
			return buf, false
		}
		return jsonscalar.AppendFloat(buf, x), true
	case int:
		return strconv.AppendInt(buf, int64(x), 10), true
	case int64:
		return strconv.AppendInt(buf, x, 10), true
	}
	return buf, false
}
