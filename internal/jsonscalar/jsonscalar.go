// Package jsonscalar writes and scans JSON scalars byte-for-byte the way
// encoding/json does, without reflection or boxing. The server's row
// encoder and insert-body decoder and the Go client's row decoder and
// insert-body encoder all use it, so the wire format has one definition.
// It imports only the standard library, which keeps pkg/client free of
// engine code.
package jsonscalar

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// AppendFloat formats a finite float the way encoding/json (and ES6)
// does: shortest round-trip digits, exponent form below 1e-6 and from
// 1e21, a two-digit exponent trimmed to one ("1e-07" -> "1e-7"). NaN and
// the infinities have no JSON encoding; callers refuse them first.
func AppendFloat(buf []byte, f float64) []byte {
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

// AppendString quotes s as encoding/json does with HTML escaping on:
// `"` and `\` backslashed; \b \f \n \r \t by their short forms; other
// control bytes, '<', '>' and '&' as \u00XX; U+2028 and U+2029 escaped
// as \u2028 and \u2029; each byte of invalid UTF-8 as \ufffd.
func AppendString(buf []byte, s string) []byte {
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

// NumberEnd returns the end of the JSON number starting at b[i], or -1
// when the bytes there are not one. The grammar is checked here because
// strconv.ParseFloat accepts more than JSON does (hex, "Inf", a bare
// leading or trailing dot).
func NumberEnd(b []byte, i int) int {
	digits := func() bool {
		start := i
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case !digits():
		return -1
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return -1
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return -1
		}
	}
	return i
}

// StringEnd returns the end of the JSON string starting at b[i], one
// past its closing quote, when its bytes between the quotes are its
// value: no backslash escape, no control byte, valid UTF-8. Otherwise,
// or when b[i] does not open a string, it returns -1.
func StringEnd(b []byte, i int) int {
	if i >= len(b) || b[i] != '"' {
		return -1
	}
	ascii := true
	for j := i + 1; j < len(b); j++ {
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
