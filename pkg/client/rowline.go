package client

import "fungusdb/internal/jsonscalar"

// A Rows interns the string cells it decodes (see internString): up to
// internMaxEntries distinct strings of at most internMaxLen bytes each,
// so a stream's memory for them stays bounded whatever it carries.
const (
	internMaxLen     = 64
	internMaxEntries = 1024
)

// parseRowLine decodes one NDJSON row line — a flat JSON array of
// numbers, strings, booleans and nulls, written without whitespace, as
// the server writes them — into dst[:0] in a single pass. Values come
// out typed as encoding/json decodes them into an `any`: float64,
// string, bool, nil; numbers are read by jsonscalar.ParseNumber, string
// cells are interned in strs. ok is false for anything else (whitespace
// between tokens, escapes inside strings, invalid UTF-8, nesting,
// malformed input, a number that overflows float64); dst's
// contents are then unspecified and the caller falls back to
// json.Unmarshal, which either decodes the line or words the error.
// FuzzRowLine holds the two parsers together.
func parseRowLine(line []byte, dst []any, strs map[string]any) (row []any, ok bool) {
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
			end := jsonscalar.StringEnd(line, i)
			if end < 0 {
				return dst, false
			}
			dst = append(dst, internString(strs, line[i+1:end-1]))
			i = end
		case c == '-' || (c >= '0' && c <= '9'):
			f, end, ok := jsonscalar.ParseNumber(line, i)
			if !ok {
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

// internString returns raw as a boxed string, the same box for every
// cell with these bytes once strs remembers it: a repeated string costs
// no allocation. strs remembers strings of at most internMaxLen bytes
// until it holds internMaxEntries; a nil strs remembers none.
func internString(strs map[string]any, raw []byte) any {
	if v, ok := strs[string(raw)]; ok {
		return v
	}
	s := string(raw)
	var v any = s
	if strs != nil && len(s) <= internMaxLen && len(strs) < internMaxEntries {
		strs[s] = v
	}
	return v
}
