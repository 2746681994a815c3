package tuple

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"fungusdb/internal/clock"
)

func sampleTuple() Tuple {
	return Tuple{
		ID:       17,
		T:        clock.Tick(99),
		F:        0.625,
		Infected: true,
		Attrs: []Value{
			Int(-12345),
			Float(3.25),
			String_("héllo, wörld"),
			Bool(true),
			Bool(false),
		},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	orig := sampleTuple()
	buf := AppendEncode(nil, orig)
	got, n, err := Decode(buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Errorf("Decode consumed %d of %d bytes", n, len(buf))
	}
	if !reflect.DeepEqual(got, orig) {
		t.Errorf("round trip mismatch:\n got %v\nwant %v", got, orig)
	}
}

func TestCodecRoundTripEmptyAttrs(t *testing.T) {
	orig := New(1, 2, nil)
	orig.Attrs = []Value{}
	buf := AppendEncode(nil, orig)
	got, _, err := Decode(buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Attrs) != 0 {
		t.Errorf("got %d attrs, want 0", len(got.Attrs))
	}
	if got.ID != 1 || got.T != 2 || got.F != Full {
		t.Errorf("header mismatch: %v", got)
	}
}

func TestCodecAppendsToExisting(t *testing.T) {
	prefix := []byte{0xAA, 0xBB}
	buf := AppendEncode(prefix, sampleTuple())
	if buf[0] != 0xAA || buf[1] != 0xBB {
		t.Fatal("prefix clobbered")
	}
	got, _, err := Decode(buf[2:], nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 17 {
		t.Errorf("decoded ID = %d", got.ID)
	}
}

func TestCodecTwoConsecutive(t *testing.T) {
	a := New(1, 10, []Value{Int(1)})
	b := New(2, 20, []Value{String_("two")})
	buf := AppendEncode(AppendEncode(nil, a), b)
	gotA, n, err := Decode(buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	gotB, _, err := Decode(buf[n:], nil)
	if err != nil {
		t.Fatal(err)
	}
	if gotA.ID != 1 || gotB.ID != 2 {
		t.Errorf("sequence decode mismatch: %v %v", gotA, gotB)
	}
}

func TestCodecSchemaValidation(t *testing.T) {
	s := MustSchema(Column{Name: "n", Kind: KindInt})
	good := New(1, 1, []Value{Int(5)})
	if _, _, err := Decode(AppendEncode(nil, good), s); err != nil {
		t.Errorf("valid tuple rejected: %v", err)
	}
	bad := New(2, 1, []Value{String_("x")})
	if _, _, err := Decode(AppendEncode(nil, bad), s); err == nil {
		t.Error("schema-mismatched tuple accepted")
	}
}

func TestCodecTruncation(t *testing.T) {
	full := AppendEncode(nil, sampleTuple())
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := Decode(full[:cut], nil); err == nil {
			t.Errorf("Decode accepted truncation at %d bytes", cut)
		}
	}
}

func TestCodecBadKindByte(t *testing.T) {
	buf := AppendEncode(nil, New(1, 1, []Value{Int(7)}))
	// The kind byte of the first attribute sits right after the fixed
	// 25-byte header plus the 1-byte attr count varint.
	buf[26] = 0xEE
	if _, _, err := Decode(buf, nil); err == nil {
		t.Error("Decode accepted corrupt kind byte")
	}
}

func TestCodecHugeStringLength(t *testing.T) {
	buf := AppendEncode(nil, New(1, 1, []Value{String_("ab")}))
	// Replace the string's length varint (after the 25-byte header, the
	// attr count and the kind byte) with the largest uvarint, whose sum
	// with the offset wraps around.
	buf = append(binary.AppendUvarint(buf[:27:27], math.MaxUint64), "ab"...)
	if _, _, err := Decode(buf, nil); err == nil {
		t.Error("Decode accepted a string length past the buffer")
	}
}

func TestCodecSpecialFloats(t *testing.T) {
	for _, f := range []float64{math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), math.MaxFloat64} {
		tp := New(1, 1, []Value{Float(f)})
		got, _, err := Decode(AppendEncode(nil, tp), nil)
		if err != nil {
			t.Fatalf("f=%v: %v", f, err)
		}
		if g := got.Attrs[0].AsFloat(); g != f && !(math.IsNaN(g) && math.IsNaN(f)) {
			t.Errorf("float %v round-tripped to %v", f, g)
		}
	}
}

// Property: arbitrary int/string tuples survive the codec.
func TestQuickCodecRoundTrip(t *testing.T) {
	f := func(id uint64, tick uint64, fresh float64, n int64, s string, b bool) bool {
		fr := Freshness(math.Abs(math.Mod(fresh, 1)))
		orig := Tuple{
			ID: ID(id), T: clock.Tick(tick), F: fr, Infected: b,
			Attrs: []Value{Int(n), String_(s), Bool(b)},
		}
		buf := AppendEncode(nil, orig)
		got, used, err := Decode(buf, nil)
		if err != nil || used != len(buf) {
			return false
		}
		return reflect.DeepEqual(got, orig)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTupleCloneIndependence(t *testing.T) {
	orig := New(1, 1, []Value{Int(1), Int(2)})
	cl := orig.Clone()
	cl.Attrs[0] = Int(99)
	if orig.Attrs[0].AsInt() != 1 {
		t.Error("Clone shares attribute storage")
	}
}

func TestFreshnessClampAndRotten(t *testing.T) {
	if Freshness(-0.5).Clamp() != 0 {
		t.Error("Clamp negative failed")
	}
	if Freshness(1.5).Clamp() != 1 {
		t.Error("Clamp >1 failed")
	}
	if Freshness(0.5).Clamp() != 0.5 {
		t.Error("Clamp in-range changed value")
	}
	if !Freshness(0).Rotten() {
		t.Error("0 should be rotten")
	}
	if Freshness(0.01).Rotten() {
		t.Error("0.01 should not be rotten")
	}
}

func TestTupleStringContainsParts(t *testing.T) {
	s := sampleTuple().String()
	for _, want := range []string{"17", "t99", "0.625", "infected", "-12345"} {
		if !contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

func TestTupleSizeMonotone(t *testing.T) {
	small := New(1, 1, []Value{Int(1)})
	big := New(1, 1, []Value{Int(1), String_("a long string payload here")})
	if big.Size() <= small.Size() {
		t.Errorf("Size not monotone: %d <= %d", big.Size(), small.Size())
	}
}
