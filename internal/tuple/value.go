// Package tuple defines the relational data model shared by the whole
// engine: typed values, schemas, and tuples of the form R(t, f, A1..An)
// from the paper — every tuple carries its insertion tick t and a
// freshness value f in (0, 1], plus the user attributes.
package tuple

import (
	"fmt"
	"math"
	"strconv"
)

// Kind enumerates the attribute types the engine supports.
type Kind uint8

// Supported attribute kinds.
const (
	KindInvalid Kind = iota
	KindInt          // 64-bit signed integer
	KindFloat        // 64-bit IEEE float
	KindString       // UTF-8 string
	KindBool         // boolean
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "STRING"
	case KindBool:
		return "BOOL"
	default:
		return "INVALID"
	}
}

// ParseKind converts a type name (as written in schemas, e.g. "INT")
// into a Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "INT", "int":
		return KindInt, nil
	case "FLOAT", "float":
		return KindFloat, nil
	case "STRING", "string":
		return KindString, nil
	case "BOOL", "bool":
		return KindBool, nil
	}
	return KindInvalid, fmt.Errorf("tuple: unknown kind %q", s)
}

// ParseValue parses source text as a value of kind: INT, FLOAT and
// BOOL through strconv, STRING verbatim.
func ParseValue(kind Kind, raw string) (Value, error) {
	switch kind {
	case KindInt:
		if n, err := strconv.ParseInt(raw, 10, 64); err == nil {
			return Int(n), nil
		}
	case KindFloat:
		if f, err := strconv.ParseFloat(raw, 64); err == nil {
			return Float(f), nil
		}
	case KindBool:
		if b, err := strconv.ParseBool(raw); err == nil {
			return Bool(b), nil
		}
	case KindString:
		return String_(raw), nil
	}
	return Value{}, fmt.Errorf("tuple: %q is not %s", raw, kind)
}

// Value is a dynamically typed attribute value. The zero Value has
// KindInvalid and represents "no value"; the engine has no NULLs — the
// paper's model does not need them and their absence keeps predicate
// semantics two-valued.
type Value struct {
	kind Kind
	i    int64   // KindInt, KindBool (0/1)
	f    float64 // KindFloat
	s    string  // KindString
}

// Int returns an INT value.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Float returns a FLOAT value.
func Float(v float64) Value { return Value{kind: KindFloat, f: v} }

// String_ returns a STRING value. The trailing underscore avoids
// colliding with the Stringer method.
func String_(v string) Value { return Value{kind: KindString, s: v} }

// Bool returns a BOOL value.
func Bool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{kind: KindBool, i: i}
}

// Kind reports the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsValid reports whether the value holds data.
func (v Value) IsValid() bool { return v.kind != KindInvalid }

// AsInt returns the integer payload. It panics unless Kind is KindInt.
func (v Value) AsInt() int64 {
	if v.kind != KindInt {
		panic("tuple: AsInt on " + v.kind.String())
	}
	return v.i
}

// AsFloat returns the float payload. It panics unless Kind is KindFloat.
func (v Value) AsFloat() float64 {
	if v.kind != KindFloat {
		panic("tuple: AsFloat on " + v.kind.String())
	}
	return v.f
}

// AsString returns the string payload. It panics unless Kind is KindString.
func (v Value) AsString() string {
	if v.kind != KindString {
		panic("tuple: AsString on " + v.kind.String())
	}
	return v.s
}

// AsBool returns the boolean payload. It panics unless Kind is KindBool.
func (v Value) AsBool() bool {
	if v.kind != KindBool {
		panic("tuple: AsBool on " + v.kind.String())
	}
	return v.i != 0
}

// Numeric returns the value as a float64 for arithmetic, accepting INT
// and FLOAT kinds. ok is false for other kinds.
func (v Value) Numeric() (f float64, ok bool) {
	switch v.kind {
	case KindInt:
		return float64(v.i), true
	case KindFloat:
		return v.f, true
	}
	return 0, false
}

// String renders the value in SQL-literal style.
func (v Value) String() string {
	switch v.kind {
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return strconv.Quote(v.s)
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	default:
		return "<invalid>"
	}
}

// Equal reports semantic equality. Values of different kinds are equal
// only when both are numeric and represent the same number (INT 3 equals
// FLOAT 3.0), matching the comparison semantics of the query layer.
func (v Value) Equal(o Value) bool {
	c, ok := v.Compare(o)
	return ok && c == 0
}

// Compare orders v against o, returning -1, 0 or +1. ok is false when
// the kinds are incomparable (e.g. STRING vs INT, or any BOOL against a
// non-BOOL). Numeric kinds compare by value across INT/FLOAT.
func (v Value) Compare(o Value) (cmp int, ok bool) {
	switch {
	case v.kind == KindString && o.kind == KindString:
		switch {
		case v.s < o.s:
			return -1, true
		case v.s > o.s:
			return 1, true
		}
		return 0, true
	case v.kind == KindBool && o.kind == KindBool:
		switch {
		case v.i < o.i:
			return -1, true
		case v.i > o.i:
			return 1, true
		}
		return 0, true
	}
	a, aok := v.Numeric()
	b, bok := o.Numeric()
	if !aok || !bok {
		return 0, false
	}
	// NaN is incomparable rather than silently equal; predicates treat
	// it as a type error the same way incompatible kinds are.
	if math.IsNaN(a) || math.IsNaN(b) {
		return 0, false
	}
	switch {
	case a < b:
		return -1, true
	case a > b:
		return 1, true
	}
	return 0, true
}

// Size returns the approximate in-memory footprint of the value in
// bytes, used by the metrics package for extent accounting.
func (v Value) Size() int {
	const header = 16 // kind + padding + one 8-byte slot
	if v.kind == KindString {
		return header + len(v.s)
	}
	return header
}
