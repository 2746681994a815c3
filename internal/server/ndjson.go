package server

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"

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
			buf = appendFloatJSON(buf, f)
		case tuple.KindString:
			buf = appendStringJSON(buf, v.AsString())
		case tuple.KindBool:
			buf = strconv.AppendBool(buf, v.AsBool())
		default:
			buf = append(buf, "null"...)
		}
	}
	return append(buf, ']', '\n'), nil
}

// appendFloatJSON formats a finite float the way encoding/json (and
// ES6) does: shortest round-trip digits, exponent form below 1e-6 and
// from 1e21, a two-digit exponent trimmed to one ("1e-07" -> "1e-7").
func appendFloatJSON(buf []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	buf = strconv.AppendFloat(buf, f, format, -1, 64)
	if format == 'e' {
		if n := len(buf); n >= 4 && buf[n-4] == 'e' && (buf[n-3] == '-' || buf[n-3] == '+') && buf[n-2] == '0' {
			buf[n-2] = buf[n-1]
			buf = buf[:n-1]
		}
	}
	return buf
}

const hexDigits = "0123456789abcdef"

// appendStringJSON quotes s as encoding/json does with HTML escaping
// on: `"` and `\` backslashed; \b \f \n \r \t by their short forms;
// other control bytes, '<', '>' and '&' as \u00XX; U+2028 and U+2029
// escaped as \u2028 and \u2029; each byte of invalid UTF-8 as \ufffd.
func appendStringJSON(buf []byte, s string) []byte {
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			buf = append(buf, s[start:i]...)
			switch b {
			case '\\', '"':
				buf = append(buf, '\\', b)
			case '\b':
				buf = append(buf, '\\', 'b')
			case '\f':
				buf = append(buf, '\\', 'f')
			case '\n':
				buf = append(buf, '\\', 'n')
			case '\r':
				buf = append(buf, '\\', 'r')
			case '\t':
				buf = append(buf, '\\', 't')
			default:
				buf = append(buf, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			buf = append(buf, s[start:i]...)
			buf = append(buf, `\ufffd`...)
			start = i + size
		case c == 0x2028 || c == 0x2029: // LINE and PARAGRAPH SEPARATOR
			buf = append(buf, s[start:i]...)
			buf = append(buf, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	buf = append(buf, s[start:]...)
	return append(buf, '"')
}
