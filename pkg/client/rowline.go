package client

import (
	"strconv"
	"unicode/utf8"
)

// parseRowLine decodes one NDJSON row line — a flat JSON array of
// numbers, strings, booleans and nulls, written without whitespace, as
// the server writes them — into dst[:0] in a single pass. Values come
// out typed as encoding/json decodes them into an `any`: float64,
// string, bool, nil. ok is false for anything else (whitespace between
// tokens, escapes inside strings, invalid UTF-8, nesting, malformed or
// out-of-range input); dst's contents are then unspecified and the
// caller falls back to json.Unmarshal, which either decodes the line
// or words the error. FuzzRowLine holds the two parsers together.
func parseRowLine(line []byte, dst []any) (row []any, ok bool) {
	dst = dst[:0]
	n := len(line)
	if n < 2 || line[0] != '[' || line[n-1] != ']' {
		return dst, false
	}
	if n == 2 {
		return dst, true
	}
	for i := 1; ; {
		if i >= n-1 {
			return dst, false // "[" or "," with no value after it
		}
		switch c := line[i]; {
		case c == '"':
			start := i + 1
			ascii := true
			for i = start; ; i++ {
				if i >= n-1 {
					return dst, false // unterminated
				}
				c := line[i]
				if c == '"' {
					break
				}
				if c == '\\' || c < ' ' {
					return dst, false
				}
				if c >= utf8.RuneSelf {
					ascii = false
				}
			}
			if !ascii && !utf8.Valid(line[start:i]) {
				return dst, false
			}
			dst = append(dst, string(line[start:i]))
			i++
		case c == '-' || (c >= '0' && c <= '9'):
			end := scanNumber(line, i)
			if end < 0 {
				return dst, false
			}
			f, err := strconv.ParseFloat(string(line[i:end]), 64)
			if err != nil {
				return dst, false
			}
			dst = append(dst, f)
			i = end
		case c == 't' && hasLiteral(line, i, "true"):
			dst = append(dst, true)
			i += 4
		case c == 'f' && hasLiteral(line, i, "false"):
			dst = append(dst, false)
			i += 5
		case c == 'n' && hasLiteral(line, i, "null"):
			dst = append(dst, nil)
			i += 4
		default:
			return dst, false
		}
		switch {
		case i == n-1:
			return dst, true
		case line[i] != ',':
			return dst, false
		}
		i++
	}
}

func hasLiteral(line []byte, at int, lit string) bool {
	return len(line)-at >= len(lit) && string(line[at:at+len(lit)]) == lit
}

// scanNumber returns the end of the JSON number starting at line[i],
// or -1 when the bytes there are not one. The grammar is checked here
// because strconv.ParseFloat accepts more than JSON does (hex, "Inf",
// a bare leading or trailing dot).
func scanNumber(line []byte, i int) int {
	digits := func() bool {
		start := i
		for i < len(line) && line[i] >= '0' && line[i] <= '9' {
			i++
		}
		return i > start
	}
	if line[i] == '-' {
		i++
	}
	switch {
	case i < len(line) && line[i] == '0':
		i++
	case !digits():
		return -1
	}
	if i < len(line) && line[i] == '.' {
		i++
		if !digits() {
			return -1
		}
	}
	if i < len(line) && (line[i] == 'e' || line[i] == 'E') {
		i++
		if i < len(line) && (line[i] == '+' || line[i] == '-') {
			i++
		}
		if !digits() {
			return -1
		}
	}
	return i
}
