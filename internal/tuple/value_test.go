package tuple

import (
	"math"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if v := Int(42); v.Kind() != KindInt || v.AsInt() != 42 {
		t.Errorf("Int(42) round-trip failed: %v", v)
	}
	if v := Float(2.5); v.Kind() != KindFloat || v.AsFloat() != 2.5 {
		t.Errorf("Float(2.5) round-trip failed: %v", v)
	}
	if v := String_("hi"); v.Kind() != KindString || v.AsString() != "hi" {
		t.Errorf("String_ round-trip failed: %v", v)
	}
	if v := Bool(true); v.Kind() != KindBool || !v.AsBool() {
		t.Errorf("Bool(true) round-trip failed: %v", v)
	}
	if v := Bool(false); v.AsBool() {
		t.Errorf("Bool(false) round-trip failed: %v", v)
	}
}

func TestValueZeroIsInvalid(t *testing.T) {
	var v Value
	if v.IsValid() {
		t.Error("zero Value should be invalid")
	}
	if v.Kind() != KindInvalid {
		t.Errorf("zero Value kind = %v", v.Kind())
	}
}

func TestValueAccessorPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"AsInt on string", func() { String_("x").AsInt() }},
		{"AsFloat on int", func() { Int(1).AsFloat() }},
		{"AsString on bool", func() { Bool(true).AsString() }},
		{"AsBool on float", func() { Float(1).AsBool() }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			c.fn()
		})
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		cmp  int
		ok   bool
	}{
		{Int(1), Int(2), -1, true},
		{Int(2), Int(2), 0, true},
		{Int(3), Int(2), 1, true},
		{Int(3), Float(3.0), 0, true},
		{Float(2.5), Int(3), -1, true},
		{String_("a"), String_("b"), -1, true},
		{String_("b"), String_("b"), 0, true},
		{String_("c"), String_("b"), 1, true},
		{Bool(false), Bool(true), -1, true},
		{Bool(true), Bool(true), 0, true},
		{String_("1"), Int(1), 0, false},
		{Bool(true), Int(1), 0, false},
		{Float(math.NaN()), Float(1), 0, false},
	}
	for _, c := range cases {
		cmp, ok := c.a.Compare(c.b)
		if ok != c.ok || (ok && cmp != c.cmp) {
			t.Errorf("Compare(%v, %v) = (%d, %v), want (%d, %v)", c.a, c.b, cmp, ok, c.cmp, c.ok)
		}
	}
}

func TestValueEqual(t *testing.T) {
	if !Int(3).Equal(Float(3)) {
		t.Error("Int(3) should equal Float(3)")
	}
	if Int(3).Equal(String_("3")) {
		t.Error("Int(3) should not equal String_(\"3\")")
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Int(-7), "-7"},
		{Float(1.5), "1.5"},
		{String_("a\"b"), `"a\"b"`},
		{Bool(true), "true"},
		{Bool(false), "false"},
		{Value{}, "<invalid>"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestParseKind(t *testing.T) {
	for _, s := range []string{"INT", "int", "FLOAT", "float", "STRING", "string", "BOOL", "bool"} {
		if _, err := ParseKind(s); err != nil {
			t.Errorf("ParseKind(%q) error: %v", s, err)
		}
	}
	if _, err := ParseKind("BLOB"); err == nil {
		t.Error("ParseKind(BLOB) should fail")
	}
}

func TestParseValue(t *testing.T) {
	good := []struct {
		kind Kind
		raw  string
		want Value
	}{
		{KindInt, "-7", Int(-7)},
		{KindFloat, "2.5", Float(2.5)},
		{KindFloat, "3", Float(3)},
		{KindBool, "true", Bool(true)},
		{KindBool, "0", Bool(false)},
		{KindString, "?", String_("?")},
		{KindString, "", String_("")},
	}
	for _, c := range good {
		if got, err := ParseValue(c.kind, c.raw); err != nil || !got.Equal(c.want) || got.Kind() != c.kind {
			t.Errorf("ParseValue(%s, %q) = %v, %v; want %v", c.kind, c.raw, got, err, c.want)
		}
	}
	bad := []struct {
		kind Kind
		raw  string
	}{
		{KindInt, "2.5"}, {KindInt, "x"}, {KindFloat, "x"}, {KindBool, "yes"}, {KindInvalid, "1"},
	}
	for _, c := range bad {
		if v, err := ParseValue(c.kind, c.raw); err == nil {
			t.Errorf("ParseValue(%s, %q) = %v, want an error", c.kind, c.raw, v)
		}
	}
}

func TestValueSizeGrowsWithString(t *testing.T) {
	small := String_("a").Size()
	big := String_("aaaaaaaaaaaaaaaaaaaa").Size()
	if big <= small {
		t.Errorf("Size: big %d <= small %d", big, small)
	}
}

// Property: comparison is antisymmetric and reflexive on ints.
func TestQuickCompareIntAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		c1, ok1 := Int(a).Compare(Int(b))
		c2, ok2 := Int(b).Compare(Int(a))
		if !ok1 || !ok2 {
			return false
		}
		return c1 == -c2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: string comparison agrees with Go's native ordering.
func TestQuickCompareStringAgree(t *testing.T) {
	f := func(a, b string) bool {
		c, ok := String_(a).Compare(String_(b))
		if !ok {
			return false
		}
		switch {
		case a < b:
			return c == -1
		case a > b:
			return c == 1
		}
		return c == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
