// Package jsonscalar writes and scans JSON scalars byte-for-byte the way
// encoding/json does, without reflection or boxing. The server's row
// encoder and insert-body decoder and the Go client's row decoder and
// insert-body encoder all use it, so the wire format has one definition.
// It imports only the standard library, which keeps pkg/client free of
// engine code.
//
// Floats go through text without strconv on the common path, and with
// exactly strconv's results. AppendFloat finds the shortest round-trip
// digits with Schubfach (Giulietti, 2020) and ParseNumber converts
// decimal to binary with Eisel–Lemire (Lemire, 2021); both read one
// table of 128-bit mantissas of 10^-348 … 10^347, built once at start-up.
// ParseNumber hands a number to strconv.ParseFloat only when it has more
// than 19 significant digits or an exponent of 100000 or more, or when
// Eisel–Lemire declines it (a halfway case one 128-bit product cannot
// settle, a subnormal or overflowing result, an exponent outside the
// table).
package jsonscalar

import "unicode/utf8"

const hexDigits = "0123456789abcdef"

// plainOut marks the bytes AppendString copies as they are: printable
// ASCII other than `"`, `\`, '<', '>' and '&'. plainIn marks the bytes
// StringEnd passes over without a second look: ASCII other than `"`,
// `\` and control bytes.
var plainOut, plainIn = func() (out, in [256]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		out[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
		in[b] = b != '"' && b != '\\'
	}
	return out, in
}()

// AppendString quotes s as encoding/json does with HTML escaping on:
// `"` and `\` backslashed; \b \f \n \r \t by their short forms; other
// control bytes, '<', '>' and '&' as \u00XX; U+2028 and U+2029 escaped
// as \u2028 and \u2029; each byte of invalid UTF-8 as \ufffd. A run of
// plain bytes is skipped by table, four at a time; the first byte that
// needs escaping or UTF-8 decoding hands the rest to the byte-by-byte
// loop.
func AppendString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	i := 0
	for ; i+4 <= len(s); i += 4 {
		if !plainOut[s[i]] || !plainOut[s[i+1]] || !plainOut[s[i+2]] || !plainOut[s[i+3]] {
			break
		}
	}
	for i < len(s) && plainOut[s[i]] {
		i++
	}
	if i == len(s) {
		buf = append(buf, s...)
		return append(buf, '"')
	}
	start := 0
	for i < len(s) {
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

// StringEnd returns the end of the JSON string starting at b[i], one
// past its closing quote, when its bytes between the quotes are its
// value: no backslash escape, no control byte, valid UTF-8. Otherwise,
// or when b[i] does not open a string, it returns -1. A run of plain
// ASCII is skipped by table, four bytes at a time; the loop after it
// checks each byte.
func StringEnd(b []byte, i int) int {
	if i >= len(b) || b[i] != '"' {
		return -1
	}
	j := i + 1
	for ; j+4 <= len(b); j += 4 {
		if !plainIn[b[j]] || !plainIn[b[j+1]] || !plainIn[b[j+2]] || !plainIn[b[j+3]] {
			break
		}
	}
	for j < len(b) && plainIn[b[j]] {
		j++
	}
	ascii := true
	for ; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			if !ascii && !utf8.Valid(b[i+1:j]) {
				return -1
			}
			return j + 1
		case c == '\\' || c < ' ':
			return -1
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return -1 // unterminated
}
