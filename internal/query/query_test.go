package query

import (
	"strings"
	"testing"
	"testing/quick"

	"fungusdb/internal/tuple"
)

var testSchema = tuple.MustSchema(
	tuple.Column{Name: "device", Kind: tuple.KindString},
	tuple.Column{Name: "temp", Kind: tuple.KindFloat},
	tuple.Column{Name: "count", Kind: tuple.KindInt},
	tuple.Column{Name: "ok", Kind: tuple.KindBool},
)

func testTuple(device string, temp float64, count int64, ok bool) tuple.Tuple {
	tp := tuple.New(1, 10, []tuple.Value{
		tuple.String_(device), tuple.Float(temp), tuple.Int(count), tuple.Bool(ok),
	})
	tp.F = 0.5
	return tp
}

func evalBool(t *testing.T, src string, tp tuple.Tuple) bool {
	t.Helper()
	p, err := Compile(src, testSchema)
	if err != nil {
		t.Fatalf("Compile(%q): %v", src, err)
	}
	got, err := matchRow(p, &tp)
	if err != nil {
		t.Fatalf("Match(%q): %v", src, err)
	}
	return got
}

func TestPredicateComparisons(t *testing.T) {
	tp := testTuple("sensor-1", 21.5, 3, true)
	cases := []struct {
		src  string
		want bool
	}{
		{"temp > 20", true},
		{"temp > 21.5", false},
		{"temp >= 21.5", true},
		{"temp < 100", true},
		{"temp <= 21", false},
		{"count = 3", true},
		{"count != 3", false},
		{"count <> 3", false},
		{"device = 'sensor-1'", true},
		{"device = \"sensor-1\"", true},
		{"device != 'sensor-2'", true},
		{"ok = TRUE", true},
		{"ok", true},
		{"NOT ok", false},
		{"", true}, // empty predicate selects everything
	}
	for _, c := range cases {
		if got := evalBool(t, c.src, tp); got != c.want {
			t.Errorf("%q = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestPredicateLogicalOps(t *testing.T) {
	tp := testTuple("a", 10, 5, false)
	cases := []struct {
		src  string
		want bool
	}{
		{"temp = 10 AND count = 5", true},
		{"temp = 10 AND count = 6", false},
		{"temp = 11 OR count = 5", true},
		{"temp = 11 OR count = 6", false},
		{"NOT (temp = 11) AND NOT ok", true},
		// Precedence: AND binds tighter than OR.
		{"temp = 11 OR temp = 10 AND count = 5", true},
		{"(temp = 11 OR temp = 10) AND count = 6", false},
	}
	for _, c := range cases {
		if got := evalBool(t, c.src, tp); got != c.want {
			t.Errorf("%q = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestPredicateArithmetic(t *testing.T) {
	tp := testTuple("a", 10, 4, true)
	cases := []struct {
		src  string
		want bool
	}{
		{"temp * 2 = 20", true},
		{"count + 1 = 5", true},
		{"count - 6 = -2", true},
		{"count / 2 = 2", true},
		{"count % 3 = 1", true},
		{"-count = -4", true},
		{"temp + count = 14", true},
		{"(temp + 2) * 2 = 24", true},
		{"device + '!' = 'a!'", true},
		{"2 + 3 * 4 = 14", true}, // * binds tighter than +
	}
	for _, c := range cases {
		if got := evalBool(t, c.src, tp); got != c.want {
			t.Errorf("%q = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestPredicateSystemColumns(t *testing.T) {
	tp := testTuple("a", 1, 1, true) // inserted at tick 10, freshness 0.5
	cases := []struct {
		src  string
		want bool
	}{
		{"_t = 10", true},
		{"_t < 5", false},
		{"_f = 0.5", true},
		{"_f > 0.25 AND _f < 0.75", true},
	}
	for _, c := range cases {
		if got := evalBool(t, c.src, tp); got != c.want {
			t.Errorf("%q = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestCompileRejectsUnknownColumn(t *testing.T) {
	_, err := Compile("nosuch > 1", testSchema)
	if err == nil || !strings.Contains(err.Error(), "unknown column") {
		t.Errorf("err = %v", err)
	}
}

func TestCompileRejectsSyntaxErrors(t *testing.T) {
	for _, src := range []string{
		"temp >", "AND temp", "temp = )", "(temp = 1", "temp = 'open",
		"temp ! 1", "1 2", "temp = 1e", "temp = .",
	} {
		if _, err := Compile(src, testSchema); err == nil {
			t.Errorf("Compile(%q) accepted", src)
		}
	}
}

func TestMatchTypeErrors(t *testing.T) {
	tp := testTuple("a", 1, 1, true)
	for _, src := range []string{
		"device > 5",       // string vs int comparison
		"temp AND ok",      // non-bool logical operand
		"NOT temp",         // NOT on float
		"device * 2 = 'x'", // arithmetic on string
		"count / 0 = 1",    // division by zero
		"count % 0 = 1",    // modulo by zero
		"temp + 1",         // non-boolean predicate result
		"-device = 'a'",    // negate string
	} {
		p, err := Compile(src, testSchema)
		if err != nil {
			continue // some are caught at compile time; fine either way
		}
		if _, err := matchRow(p, &tp); err == nil {
			t.Errorf("Match(%q) did not error", src)
		}
	}
}

func TestShortCircuitSkipsErrors(t *testing.T) {
	tp := testTuple("a", 1, 0, false)
	// The right side would divide by zero, but the left side decides.
	if got := evalBool(t, "FALSE AND 1 / count = 1", tp); got {
		t.Error("FALSE AND ... = true")
	}
	if got := evalBool(t, "TRUE OR 1 / count = 1", tp); !got {
		t.Error("TRUE OR ... = false")
	}
}

func TestExprStringRoundTrips(t *testing.T) {
	srcs := []string{
		"temp > 20 AND device = 'x'",
		"NOT (ok OR count < 3)",
		"count + 1 * 2 >= 3",
		"-temp < 0 OR _f > 0.5",
	}
	for _, src := range srcs {
		e1 := MustParse(src)
		e2, err := Parse(e1.String())
		if err != nil {
			t.Fatalf("re-parse of %q -> %q failed: %v", src, e1.String(), err)
		}
		if e1.String() != e2.String() {
			t.Errorf("String round trip: %q -> %q", e1.String(), e2.String())
		}
	}
}

// TestAggregate pins the one-column fold the stream layer's windows
// use: COUNT, SUM, AVG, MIN and MAX over a numeric column, a non-numeric
// one rejected, and the values of an empty input.
func TestAggregate(t *testing.T) {
	tuples := []tuple.Tuple{
		testTuple("a", 10, 1, true),
		testTuple("b", 30, 3, true),
		testTuple("c", 20, 2, true),
	}
	run := func(col string, in []tuple.Tuple) ([]tuple.Value, error) {
		stmt, err := ParseSelect("SELECT COUNT(*), SUM(" + col + "), AVG(" + col + "), MIN(" + col + "), MAX(" + col + ") FROM t")
		if err != nil {
			t.Fatal(err)
		}
		g, err := Execute(stmt, testSchema, in)
		if err != nil {
			return nil, err
		}
		return g.Rows[0], nil
	}
	row, err := run("temp", tuples)
	if err != nil {
		t.Fatal(err)
	}
	if row[0].AsInt() != 3 || row[1].AsFloat() != 60 || row[2].AsFloat() != 20 || row[3].AsFloat() != 10 || row[4].AsFloat() != 30 {
		t.Errorf("agg = %v", row)
	}
	if _, err := run("device", tuples); err == nil {
		t.Error("aggregate over string accepted")
	}
	if _, err := run("nosuch", tuples); err == nil {
		t.Error("aggregate over unknown column accepted")
	}
	row, err = run("temp", nil)
	if err != nil {
		t.Fatal(err)
	}
	if row[0].AsInt() != 0 || row[1].AsFloat() != 0 || row[2].AsFloat() != 0 || row[3].IsValid() || row[4].IsValid() {
		t.Errorf("empty agg = %v", row)
	}
}

// Property: integer comparison predicates agree with Go's operators.
func TestQuickIntPredicates(t *testing.T) {
	schema := tuple.MustSchema(tuple.Column{Name: "x", Kind: tuple.KindInt})
	lt := mustCompile("x < 0", schema)
	ge := mustCompile("x >= 0", schema)
	f := func(x int64) bool {
		tp := tuple.New(0, 0, []tuple.Value{tuple.Int(x)})
		a, err1 := matchRow(lt, &tp)
		b, err2 := matchRow(ge, &tp)
		if err1 != nil || err2 != nil {
			return false
		}
		return a == (x < 0) && b == (x >= 0) && a != b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: De Morgan's law holds for arbitrary boolean tuples.
func TestQuickDeMorgan(t *testing.T) {
	schema := tuple.MustSchema(
		tuple.Column{Name: "p", Kind: tuple.KindBool},
		tuple.Column{Name: "q", Kind: tuple.KindBool},
	)
	lhs := mustCompile("NOT (p AND q)", schema)
	rhs := mustCompile("NOT p OR NOT q", schema)
	f := func(p, q bool) bool {
		tp := tuple.New(0, 0, []tuple.Value{tuple.Bool(p), tuple.Bool(q)})
		a, err1 := matchRow(lhs, &tp)
		b, err2 := matchRow(rhs, &tp)
		return err1 == nil && err2 == nil && a == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLexStringEscapes(t *testing.T) {
	tp := testTuple("it''s", 1, 1, true)
	// Doubled quotes escape inside both quote styles.
	if !evalBool(t, "device = 'it''''s'", tp) {
		// device value is "it''s": the source needs each ' doubled.
		t.Error("doubled single-quote escape failed")
	}
}
