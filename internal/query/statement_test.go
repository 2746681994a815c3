package query

import (
	"strings"
	"testing"

	"fungusdb/internal/tuple"
)

// --- placeholders -----------------------------------------------------

func TestPlaceholderIndicesAssignInParseOrder(t *testing.T) {
	stmt, err := ParseStatement("SELECT user FROM clicks WHERE dwell > ? AND url = ? OR dwell IN (?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.NumParams() != 4 {
		t.Fatalf("NumParams = %d, want 4", stmt.NumParams())
	}
	plan, err := stmt.Plan(clickSchema)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumParams() != 4 {
		t.Fatalf("plan params = %d, want 4", plan.NumParams())
	}
}

func TestPlaceholderBindAndMatch(t *testing.T) {
	stmt, err := ParseStatement("SELECT * FROM clicks WHERE dwell >= ? AND user = ?")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := stmt.Plan(clickSchema)
	if err != nil {
		t.Fatal(err)
	}
	params := []tuple.Value{tuple.Int(300), tuple.String_("alice")}
	if err := plan.BindCheck(params); err != nil {
		t.Fatal(err)
	}
	bound, err := plan.Bind(params)
	if err != nil {
		t.Fatal(err)
	}
	tuples := clickTuples()
	var matched int
	for i := range tuples {
		ok, err := matchProg(bound.vec, &tuples[i])
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			matched++
		}
	}
	// alice rows with dwell >= 300: (/shop,300) and (/home,500).
	if matched != 2 {
		t.Fatalf("matched = %d, want 2", matched)
	}
}

func TestPlaceholderArityMismatch(t *testing.T) {
	stmt, _ := ParseStatement("SELECT * FROM clicks WHERE dwell > ?")
	plan, err := stmt.Plan(clickSchema)
	if err != nil {
		t.Fatal(err)
	}
	for _, params := range [][]tuple.Value{
		nil,
		{tuple.Int(1), tuple.Int(2)},
	} {
		if err := plan.BindCheck(params); err == nil {
			t.Errorf("BindCheck(%v) accepted wrong arity", params)
		}
	}
	if err := plan.BindCheck([]tuple.Value{{}}); err == nil {
		t.Error("BindCheck accepted an invalid (zero) value")
	}
}

func TestPlaceholderTypeMismatchSurfacesAtMatch(t *testing.T) {
	stmt, _ := ParseStatement("SELECT * FROM clicks WHERE dwell > ?")
	plan, err := stmt.Plan(clickSchema)
	if err != nil {
		t.Fatal(err)
	}
	tuples := clickTuples()
	// Comparing INT column against STRING param is a runtime type error.
	bound, err := plan.Bind([]tuple.Value{tuple.String_("nope")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := matchProg(bound.vec, &tuples[0]); err == nil {
		t.Fatal("INT vs STRING comparison did not error")
	}
}

func TestBareWhereRejectsPlaceholders(t *testing.T) {
	if _, err := Parse("dwell > ?"); err == nil {
		t.Fatal("Parse accepted a placeholder outside a prepared statement")
	}
	if _, err := Compile("dwell > ?", clickSchema); err == nil {
		t.Fatal("Compile accepted a placeholder")
	}
}

func TestUnboundPlaceholderEvalErrors(t *testing.T) {
	stmt, _ := ParseStatement("SELECT dwell + ? AS d FROM clicks ORDER BY d LIMIT 3")
	plan, err := stmt.Plan(clickSchema)
	if err != nil {
		t.Fatal(err)
	}
	// Projecting on an unbound plan: the placeholder must fail, not
	// silently evaluate.
	b := batchOf(clickSchema, clickTuples())
	if err := plan.NewTopK().AddBatch(b, b.Live); err == nil || !strings.Contains(err.Error(), "not bound") {
		t.Fatalf("unbound placeholder evaluated (err %v)", err)
	}
}

// --- plan compile checks ---------------------------------------------

func TestPlanRejectsUnknownColumns(t *testing.T) {
	for _, src := range []string{
		"SELECT nosuch FROM clicks",
		"SELECT * FROM clicks WHERE nosuch = 1",
		"SELECT user, COUNT(*) FROM clicks GROUP BY nosuch",
		"SELECT user FROM clicks GROUP BY url", // non-grouped plain target
	} {
		stmt, err := ParseStatement(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := stmt.Plan(clickSchema); err == nil {
			t.Errorf("Plan accepted %q", src)
		}
	}
}

func TestPlanRouting(t *testing.T) {
	cases := []struct {
		src                   string
		agg, consume, ordered bool
	}{
		{"SELECT * FROM clicks", false, false, false},
		{"SELECT COUNT(*) FROM clicks", true, false, false},
		{"SELECT user, COUNT(*) AS n FROM clicks GROUP BY user", true, false, false},
		{"SELECT CONSUME * FROM clicks WHERE dwell > 1", false, true, false},
		{"SELECT user FROM clicks ORDER BY user", false, false, true},
	}
	for _, c := range cases {
		stmt, err := ParseStatement(c.src)
		if err != nil {
			t.Fatalf("parse %q: %v", c.src, err)
		}
		plan, err := stmt.Plan(clickSchema)
		if err != nil {
			t.Fatalf("plan %q: %v", c.src, err)
		}
		if plan.Aggregated() != c.agg || plan.Consume() != c.consume || plan.Ordered() != c.ordered {
			t.Errorf("%q routing = agg:%v consume:%v ordered:%v",
				c.src, plan.Aggregated(), plan.Consume(), plan.Ordered())
		}
	}
}

// --- ask statements ---------------------------------------------------

func TestParseAskForms(t *testing.T) {
	good := []string{
		"count", "ndv:user", "mean:dwell", "sum:dwell",
		"q:dwell:0.5", "top:url", "top:url:3", "has:user:alice", "has:dwell:?",
	}
	for _, q := range good {
		stmt, err := ParseAskStatement("c", q)
		if err != nil {
			t.Errorf("ParseAskStatement(%q): %v", q, err)
			continue
		}
		if _, err := stmt.Plan(clickSchema); err != nil {
			t.Errorf("Plan(%q): %v", q, err)
		}
	}
	bad := []string{
		"", "count:extra", "ndv", "ndv:", "q:dwell", "q:dwell:2.0", "q:dwell:x",
		"top:url:0", "has:user", "unknown", "mean:dwell:extra",
	}
	for _, q := range bad {
		if stmt, err := ParseAskStatement("c", q); err == nil {
			if _, err := stmt.Plan(clickSchema); err == nil {
				t.Errorf("ask %q accepted", q)
			}
		}
	}
}

func TestAskPlanValidatesColumnAndOperand(t *testing.T) {
	// Unknown column caught at compile, not at digest time.
	stmt, err := ParseAskStatement("c", "ndv:nosuch")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stmt.Plan(clickSchema); err == nil {
		t.Fatal("unknown ask column compiled")
	}
	// INT column with a non-integer has-operand: compile-time coercion
	// failure.
	stmt, err = ParseAskStatement("c", "has:dwell:notanint")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stmt.Plan(clickSchema); err == nil {
		t.Fatal("bad has operand compiled")
	}
	// Parameterised has defers the operand to bind time.
	stmt, _ = ParseAskStatement("c", "has:dwell:?")
	plan, err := stmt.Plan(clickSchema)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumParams() != 1 {
		t.Fatalf("has:dwell:? params = %d, want 1", plan.NumParams())
	}
}

// --- parser edge cases (NOT with postfix operators, precedence) -------

func matchWhere(t *testing.T, where string, tp *tuple.Tuple) bool {
	t.Helper()
	pred, err := Compile(where, clickSchema)
	if err != nil {
		t.Fatalf("Compile(%q): %v", where, err)
	}
	ok, err := matchRow(pred, tp)
	if err != nil {
		t.Fatalf("Match(%q): %v", where, err)
	}
	return ok
}

func TestNotWithPostfixOperators(t *testing.T) {
	tuples := clickTuples()
	alice := &tuples[0] // alice /home 100
	cases := []struct {
		where string
		want  bool
	}{
		{"user NOT LIKE 'b%'", true},
		{"user NOT LIKE 'a%'", false},
		{"NOT user LIKE 'a%'", false},
		{"NOT (user LIKE 'a%')", false},
		{"dwell NOT IN (100, 200)", false},
		{"dwell NOT IN (300, 400)", true},
		{"NOT dwell IN (100)", false},
		{"dwell NOT BETWEEN 50 AND 150", false},
		{"dwell NOT BETWEEN 150 AND 250", true},
		{"NOT user LIKE 'b%' AND dwell NOT IN (999)", true},
		// NOT binds the whole postfix expression, then AND combines.
		{"NOT (user LIKE 'a%' AND dwell IN (100))", false},
	}
	for _, c := range cases {
		if got := matchWhere(t, c.where, alice); got != c.want {
			t.Errorf("%q = %v, want %v", c.where, got, c.want)
		}
	}
}

func TestPrecedenceVsParentheses(t *testing.T) {
	tuples := clickTuples()
	alice := &tuples[0] // alice /home 100
	cases := []struct {
		where string
		want  bool
	}{
		// AND binds tighter than OR.
		{"user = 'bob' OR user = 'alice' AND dwell = 100", true},
		{"(user = 'bob' OR user = 'alice') AND dwell = 999", false},
		// NOT binds tighter than AND.
		{"NOT user = 'bob' AND dwell = 100", true},
		{"NOT (user = 'bob' AND dwell = 100)", true},
		{"NOT (user = 'alice' AND dwell = 100)", false},
		// Arithmetic precedence: * over +, parens override.
		{"dwell = 10 + 9 * 10", true},
		{"dwell = (10 + 9) * 10", false},
		{"dwell % 30 = 10", true},
		{"-dwell + 200 = 100", true},
	}
	for _, c := range cases {
		if got := matchWhere(t, c.where, alice); got != c.want {
			t.Errorf("%q = %v, want %v", c.where, got, c.want)
		}
	}
}

// TestErrorMessageStability pins the user-facing text of the most
// common mistakes: these strings are part of the API surface (clients
// and docs show them verbatim), so changing one should be a conscious
// decision that updates this test.
func TestErrorMessageStability(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{"SELECT", "query: unexpected end of expression"},
		{"SELECT *", "query: missing FROM"},
		{"SELECT * FROM", "query: FROM wants a table name"},
		{"SELECT * FROM t WHERE", "query: unexpected end of expression"},
		{"SELECT * FROM t LIMIT x", "query: LIMIT wants an integer"},
		{"SELECT * FROM t GROUP user", "query: GROUP wants BY"},
		{"SELECT COUNT( FROM t", "query: aggregate missing ')'"},
		{"SELECT SUM(*) FROM t", "query: only COUNT accepts '*'"},
	}
	for _, c := range cases {
		_, err := ParseStatement(c.src)
		if err == nil {
			t.Errorf("%q parsed", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q error = %q, want it to contain %q", c.src, err, c.want)
		}
	}
	whereCases := []struct {
		src, want string
	}{
		{"a !", "stray '!'"},
		{"'unterminated", "unterminated string"},
		{"1e", "malformed exponent"},
		{"a NOT 1", "query: unexpected \"NOT\""},
		{"a IN 1", "IN needs '('"},
		{"a BETWEEN 1 OR 2", "BETWEEN wants AND"},
		{"dwell > ?", "placeholder"},
	}
	for _, c := range whereCases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("%q parsed", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q error = %q, want it to contain %q", c.src, err, c.want)
		}
	}
}
