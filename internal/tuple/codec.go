package tuple

import (
	"encoding/binary"
	"fmt"
	"math"

	"fungusdb/internal/clock"
)

// Binary tuple codec used by the WAL and snapshots. Layout (all
// little-endian):
//
//	uint64 id
//	uint64 tick
//	float64 freshness
//	uint8  flags (bit0 = infected)
//	uvarint nattrs
//	per attr: uint8 kind, then kind-specific payload
//	  INT:    varint
//	  FLOAT:  8 bytes IEEE-754
//	  BOOL:   1 byte
//	  STRING: uvarint length + bytes
//
// The codec is self-describing per attribute so readers do not need the
// schema to skip records, but Decode validates against a schema when
// one is supplied.

// AppendEncode appends the binary encoding of tp to dst and returns the
// extended slice.
func AppendEncode(dst []byte, tp Tuple) []byte {
	var scratch [8]byte
	binary.LittleEndian.PutUint64(scratch[:], uint64(tp.ID))
	dst = append(dst, scratch[:]...)
	binary.LittleEndian.PutUint64(scratch[:], uint64(tp.T))
	dst = append(dst, scratch[:]...)
	binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(float64(tp.F)))
	dst = append(dst, scratch[:]...)
	var flags byte
	if tp.Infected {
		flags |= 1
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(len(tp.Attrs)))
	for _, v := range tp.Attrs {
		dst = append(dst, byte(v.Kind()))
		switch v.Kind() {
		case KindInt:
			dst = binary.AppendVarint(dst, v.AsInt())
		case KindFloat:
			binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(v.AsFloat()))
			dst = append(dst, scratch[:]...)
		case KindBool:
			if v.AsBool() {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
		case KindString:
			s := v.AsString()
			dst = binary.AppendUvarint(dst, uint64(len(s)))
			dst = append(dst, s...)
		default:
			panic("tuple: encode invalid value")
		}
	}
	return dst
}

// AppendEncodeRow appends the encoding of row j of b: the bytes
// AppendEncode writes for the tuple ReadRow decodes, read off the
// column slices without materialising the tuple. It spells the layout
// out again instead of sharing a per-attribute helper with
// AppendEncode: that call made AppendEncode, the WAL's per-row
// encoder, over twice as slow.
func AppendEncodeRow(dst []byte, b *Batch, j int) []byte {
	var scratch [8]byte
	binary.LittleEndian.PutUint64(scratch[:], uint64(b.IDs[j]))
	dst = append(dst, scratch[:]...)
	binary.LittleEndian.PutUint64(scratch[:], uint64(b.Ts[j]))
	dst = append(dst, scratch[:]...)
	binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(b.Fs[j]))
	dst = append(dst, scratch[:]...)
	var flags byte
	if b.Inf[j] {
		flags |= 1
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(len(b.Cols)))
	for i := range b.Cols {
		c := &b.Cols[i]
		dst = append(dst, byte(c.Kind))
		switch c.Kind {
		case KindInt:
			dst = binary.AppendVarint(dst, c.Ints[j])
		case KindFloat:
			binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(c.Floats[j]))
			dst = append(dst, scratch[:]...)
		case KindBool:
			if c.Bools[j] {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
		case KindString:
			s := c.Dict[c.Codes[j]]
			dst = binary.AppendUvarint(dst, uint64(len(s)))
			dst = append(dst, s...)
		default:
			panic("tuple: encode invalid column")
		}
	}
	return dst
}

// Decode parses one tuple from the front of buf, returning the tuple and
// the number of bytes consumed. If schema is non-nil the decoded
// attributes are validated against it.
func Decode(buf []byte, schema *Schema) (Tuple, int, error) {
	const fixed = 8 + 8 + 8 + 1
	if len(buf) < fixed {
		return Tuple{}, 0, fmt.Errorf("tuple: short buffer (%d bytes)", len(buf))
	}
	var tp Tuple
	tp.ID = ID(binary.LittleEndian.Uint64(buf[0:8]))
	tp.T = clock.Tick(binary.LittleEndian.Uint64(buf[8:16]))
	tp.F = Freshness(math.Float64frombits(binary.LittleEndian.Uint64(buf[16:24])))
	tp.Infected = buf[24]&1 != 0
	pos := fixed

	n, w := binary.Uvarint(buf[pos:])
	if w <= 0 {
		return Tuple{}, 0, fmt.Errorf("tuple: bad attribute count")
	}
	pos += w
	if n > uint64(len(buf)) { // cheap sanity bound before allocating
		return Tuple{}, 0, fmt.Errorf("tuple: implausible attribute count %d", n)
	}
	tp.Attrs = make([]Value, 0, n)
	for i := uint64(0); i < n; i++ {
		if pos >= len(buf) {
			return Tuple{}, 0, fmt.Errorf("tuple: truncated at attribute %d", i)
		}
		kind := Kind(buf[pos])
		pos++
		switch kind {
		case KindInt:
			v, w := binary.Varint(buf[pos:])
			if w <= 0 {
				return Tuple{}, 0, fmt.Errorf("tuple: bad varint at attribute %d", i)
			}
			pos += w
			tp.Attrs = append(tp.Attrs, Int(v))
		case KindFloat:
			if pos+8 > len(buf) {
				return Tuple{}, 0, fmt.Errorf("tuple: truncated float at attribute %d", i)
			}
			tp.Attrs = append(tp.Attrs, Float(math.Float64frombits(binary.LittleEndian.Uint64(buf[pos:]))))
			pos += 8
		case KindBool:
			if pos >= len(buf) {
				return Tuple{}, 0, fmt.Errorf("tuple: truncated bool at attribute %d", i)
			}
			tp.Attrs = append(tp.Attrs, Bool(buf[pos] != 0))
			pos++
		case KindString:
			l, w := binary.Uvarint(buf[pos:])
			if w <= 0 {
				return Tuple{}, 0, fmt.Errorf("tuple: bad string length at attribute %d", i)
			}
			pos += w
			if l > uint64(len(buf)-pos) {
				return Tuple{}, 0, fmt.Errorf("tuple: truncated string at attribute %d", i)
			}
			tp.Attrs = append(tp.Attrs, String_(string(buf[pos:pos+int(l)])))
			pos += int(l)
		default:
			return Tuple{}, 0, fmt.Errorf("tuple: unknown kind byte %d at attribute %d", kind, i)
		}
	}
	if schema != nil {
		if err := schema.Validate(tp.Attrs); err != nil {
			return Tuple{}, 0, err
		}
	}
	return tp, pos, nil
}
