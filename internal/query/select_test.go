package query

import (
	"strings"
	"testing"
	"testing/quick"

	"fungusdb/internal/tuple"
)

var clickSchema = tuple.MustSchema(
	tuple.Column{Name: "user", Kind: tuple.KindString},
	tuple.Column{Name: "url", Kind: tuple.KindString},
	tuple.Column{Name: "dwell", Kind: tuple.KindInt},
)

func clickTuples() []tuple.Tuple {
	rows := []struct {
		user, url string
		dwell     int64
	}{
		{"alice", "/home", 100},
		{"bob", "/home", 200},
		{"alice", "/shop", 300},
		{"carol", "/home", 400},
		{"alice", "/home", 500},
		{"bob", "/shop", 600},
	}
	out := make([]tuple.Tuple, len(rows))
	for i, r := range rows {
		out[i] = tuple.New(tuple.ID(i), 1, []tuple.Value{
			tuple.String_(r.user), tuple.String_(r.url), tuple.Int(r.dwell),
		})
	}
	return out
}

func mustExec(t *testing.T, sql string) *Grid {
	t.Helper()
	stmt, err := ParseSelect(sql)
	if err != nil {
		t.Fatalf("ParseSelect(%q): %v", sql, err)
	}
	g, err := Execute(stmt, clickSchema, clickTuples())
	if err != nil {
		t.Fatalf("Execute(%q): %v", sql, err)
	}
	return g
}

func TestSelectStarProjection(t *testing.T) {
	g := mustExec(t, "SELECT * FROM clicks")
	if len(g.Cols) != 3 || g.Cols[0] != "user" {
		t.Fatalf("cols = %v", g.Cols)
	}
	if len(g.Rows) != 6 {
		t.Fatalf("rows = %d", len(g.Rows))
	}
	if g.Rows[0][0].AsString() != "alice" {
		t.Errorf("row 0 = %v", g.Rows[0])
	}
}

func TestSelectExprTargetsAndAlias(t *testing.T) {
	g := mustExec(t, "SELECT user, dwell * 2 AS double_dwell FROM clicks LIMIT 2")
	if len(g.Cols) != 2 || g.Cols[1] != "double_dwell" {
		t.Fatalf("cols = %v", g.Cols)
	}
	if len(g.Rows) != 2 {
		t.Fatalf("rows = %d", len(g.Rows))
	}
	if g.Rows[0][1].AsInt() != 200 {
		t.Errorf("double_dwell = %v", g.Rows[0][1])
	}
}

func TestSelectWhere(t *testing.T) {
	stmt, err := ParseSelect("SELECT url FROM clicks WHERE user = 'alice'")
	if err != nil {
		t.Fatal(err)
	}
	// Execute receives pre-filtered tuples in the engine; simulate here.
	pred, err := Compile(stmt.Where.String(), clickSchema)
	if err != nil {
		t.Fatal(err)
	}
	var filtered []tuple.Tuple
	for _, tp := range clickTuples() {
		if ok, _ := matchRow(pred, &tp); ok {
			filtered = append(filtered, tp)
		}
	}
	g, err := Execute(stmt, clickSchema, filtered)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Rows) != 3 {
		t.Errorf("alice rows = %d", len(g.Rows))
	}
}

func TestSelectGroupByAggregates(t *testing.T) {
	g := mustExec(t, "SELECT user, COUNT(*), SUM(dwell) AS total, AVG(dwell) AS avg, MIN(dwell) AS lo, MAX(dwell) AS hi FROM clicks GROUP BY user")
	if len(g.Rows) != 3 {
		t.Fatalf("groups = %d", len(g.Rows))
	}
	// Default order: by group key -> alice, bob, carol.
	alice := g.Rows[0]
	if alice[0].AsString() != "alice" || alice[1].AsInt() != 3 {
		t.Fatalf("alice row = %v", alice)
	}
	if alice[2].AsFloat() != 900 || alice[3].AsFloat() != 300 {
		t.Errorf("alice sum/avg = %v/%v", alice[2], alice[3])
	}
	if alice[4].AsInt() != 100 || alice[5].AsInt() != 500 {
		t.Errorf("alice min/max = %v/%v", alice[4], alice[5])
	}
	carol := g.Rows[2]
	if carol[0].AsString() != "carol" || carol[1].AsInt() != 1 {
		t.Errorf("carol row = %v", carol)
	}
}

func TestSelectGlobalAggregate(t *testing.T) {
	g := mustExec(t, "SELECT COUNT(*), SUM(dwell) FROM clicks")
	if len(g.Rows) != 1 {
		t.Fatalf("rows = %d", len(g.Rows))
	}
	if g.Rows[0][0].AsInt() != 6 || g.Rows[0][1].AsFloat() != 2100 {
		t.Errorf("row = %v", g.Rows[0])
	}
}

func TestSelectGlobalAggregateEmptyInput(t *testing.T) {
	stmt, _ := ParseSelect("SELECT COUNT(*) FROM clicks")
	g, err := Execute(stmt, clickSchema, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Rows) != 1 || g.Rows[0][0].AsInt() != 0 {
		t.Errorf("empty aggregate = %v", g.Rows)
	}
}

func TestSelectOrderBy(t *testing.T) {
	g := mustExec(t, "SELECT user, dwell FROM clicks ORDER BY dwell DESC LIMIT 3")
	want := []int64{600, 500, 400}
	for i, w := range want {
		if g.Rows[i][1].AsInt() != w {
			t.Errorf("row %d dwell = %v, want %d", i, g.Rows[i][1], w)
		}
	}
	// Multi-key: url asc, dwell desc.
	g = mustExec(t, "SELECT url, dwell FROM clicks ORDER BY url, dwell DESC")
	if g.Rows[0][0].AsString() != "/home" || g.Rows[0][1].AsInt() != 500 {
		t.Errorf("first row = %v", g.Rows[0])
	}
	last := g.Rows[len(g.Rows)-1]
	if last[0].AsString() != "/shop" || last[1].AsInt() != 300 {
		t.Errorf("last row = %v", last)
	}
}

func TestSelectGroupOrderByAggregate(t *testing.T) {
	g := mustExec(t, "SELECT url, COUNT(*) AS hits FROM clicks GROUP BY url ORDER BY hits DESC")
	if g.Rows[0][0].AsString() != "/home" || g.Rows[0][1].AsInt() != 4 {
		t.Errorf("top url = %v", g.Rows[0])
	}
}

func TestSelectParseErrors(t *testing.T) {
	bad := []string{
		"",
		"INSERT INTO x",
		"SELECT FROM clicks",
		"SELECT * clicks",
		"SELECT * FROM",
		"SELECT * FROM clicks GROUP user",
		"SELECT * FROM clicks ORDER dwell",
		"SELECT * FROM clicks LIMIT x",
		"SELECT * FROM clicks LIMIT -1",
		"SELECT * FROM clicks trailing",
		"SELECT SUM(*) FROM clicks",
		"SELECT COUNT(dwell FROM clicks",
		"SELECT * FROM clicks GROUP BY user", // star with grouping
	}
	for _, src := range bad {
		stmt, err := ParseSelect(src)
		if err != nil {
			continue
		}
		if _, err := Execute(stmt, clickSchema, clickTuples()); err == nil {
			t.Errorf("%q accepted", src)
		}
	}
}

func TestSelectExecuteErrors(t *testing.T) {
	bad := []string{
		"SELECT nosuch FROM clicks",
		"SELECT SUM(user) FROM clicks",
		"SELECT dwell FROM clicks GROUP BY user", // non-grouped plain target
		"SELECT user, user FROM clicks",          // duplicate alias
		"SELECT user FROM clicks ORDER BY dwell", // order by non-output col
		"SELECT * FROM clicks GROUP BY nosuch",
	}
	for _, src := range bad {
		stmt, err := ParseSelect(src)
		if err != nil {
			continue
		}
		if _, err := Execute(stmt, clickSchema, clickTuples()); err == nil {
			t.Errorf("%q executed", src)
		}
	}
}

func TestSelectConsumeFlagParsed(t *testing.T) {
	stmt, err := ParseSelect("SELECT CONSUME * FROM clicks WHERE dwell > 100")
	if err != nil {
		t.Fatal(err)
	}
	if !stmt.Consume {
		t.Error("CONSUME not parsed")
	}
	stmt, _ = ParseSelect("SELECT * FROM clicks")
	if stmt.Consume {
		t.Error("Consume true without keyword")
	}
	if Consume.String() != "consume" || Peek.String() != "peek" {
		t.Error("Mode strings wrong")
	}
}

func TestGridRender(t *testing.T) {
	g := mustExec(t, "SELECT user, COUNT(*) AS hits FROM clicks GROUP BY user")
	var b strings.Builder
	g.Render(&b)
	out := b.String()
	for _, want := range []string{"user", "hits", "alice", "3"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestLikeOperator(t *testing.T) {
	tp := testTuple("sensor-42", 1, 1, true)
	cases := []struct {
		src  string
		want bool
	}{
		{"device LIKE 'sensor-%'", true},
		{"device LIKE '%-42'", true},
		{"device LIKE 'sensor-__'", true},
		{"device LIKE 'sensor-_'", false},
		{"device LIKE '%s%42%'", true},
		{"device LIKE 'nope%'", false},
		{"device NOT LIKE 'nope%'", true},
		{"device LIKE 'sensor-42'", true},
		{"device LIKE ''", false},
		{"'' LIKE '%'", true},
	}
	for _, c := range cases {
		if got := evalBool(t, c.src, tp); got != c.want {
			t.Errorf("%q = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestInOperator(t *testing.T) {
	tp := testTuple("a", 2.5, 3, true)
	cases := []struct {
		src  string
		want bool
	}{
		{"count IN (1, 2, 3)", true},
		{"count IN (1, 2)", false},
		{"count NOT IN (1, 2)", true},
		{"device IN ('a', 'b')", true},
		{"device IN ('x')", false},
		{"temp IN (2.5)", true},
		{"count IN (3.0)", true},       // numeric cross-kind equality
		{"count IN ('3', 3)", true},    // incomparable member skipped
		{"count IN ('3')", false},      // only incomparable members
		{"count IN (count, 99)", true}, // non-literal members allowed
	}
	for _, c := range cases {
		if got := evalBool(t, c.src, tp); got != c.want {
			t.Errorf("%q = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestBetweenOperator(t *testing.T) {
	tp := testTuple("a", 2.5, 3, true)
	cases := []struct {
		src  string
		want bool
	}{
		{"temp BETWEEN 2 AND 3", true},
		{"temp BETWEEN 2.5 AND 2.5", true},
		{"temp BETWEEN 3 AND 4", false},
		{"temp NOT BETWEEN 3 AND 4", true},
		{"count BETWEEN temp AND 10", true},
		{"device BETWEEN 'a' AND 'b'", true},
	}
	for _, c := range cases {
		if got := evalBool(t, c.src, tp); got != c.want {
			t.Errorf("%q = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestPostfixOperatorErrors(t *testing.T) {
	for _, src := range []string{
		"temp LIKE 'x'",        // LIKE on float
		"device LIKE 5",        // non-string pattern
		"count IN (",           // unterminated list
		"count IN ()",          // empty list
		"count BETWEEN 1 OR 2", // wrong connective
		"count NOT 5",          // stray NOT
	} {
		p, err := Compile(src, testSchema)
		if err != nil {
			continue
		}
		tp := testTuple("a", 1, 1, true)
		if _, err := matchRow(p, &tp); err == nil {
			t.Errorf("%q evaluated", src)
		}
	}
}

func TestLikeInStringsRoundTrip(t *testing.T) {
	for _, src := range []string{
		"device LIKE 'a%'",
		"count IN (1, 2, 3)",
	} {
		e1 := MustParse(src)
		e2, err := Parse(e1.String())
		if err != nil {
			t.Fatalf("re-parse %q -> %q: %v", src, e1.String(), err)
		}
		if e1.String() != e2.String() {
			t.Errorf("round trip %q -> %q", e1.String(), e2.String())
		}
	}
}

// Property: likeMatch with a bare '%' pattern accepts everything, and a
// literal pattern accepts exactly itself.
func TestQuickLikeIdentityAndWildcard(t *testing.T) {
	f := func(s string) bool {
		if !likeMatch(s, "%") {
			return false
		}
		clean := strings.NewReplacer("%", "", "_", "").Replace(s)
		return likeMatch(clean, clean)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: prefix% matches exactly strings with that prefix.
func TestQuickLikePrefix(t *testing.T) {
	f := func(prefix, rest string) bool {
		p := strings.NewReplacer("%", "", "_", "").Replace(prefix)
		return likeMatch(p+rest, p+"%")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
