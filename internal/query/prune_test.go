package query

import (
	"testing"

	"fungusdb/internal/tuple"
)

// fakeZone is a hand-rolled ZoneView for verdict tests: column 0 is
// k INT in [10, 20], column 2 is name STRING in ["alpha", "beta"],
// ticks span [100, 200] and IDs [1000, 2000]. names, when set, is what
// the bloom holds (nil: it always says maybe). Only a clean zone
// vouches for v FLOAT in [0.5, 2.5] — the segment holds no NaN — and
// for ok BOOL, true on every row.
type fakeZone struct {
	names map[string]bool
	clean bool
}

func (z fakeZone) Bounds(col int) (lo, hi tuple.Value, ok bool) {
	switch {
	case col == 0:
		return tuple.Int(10), tuple.Int(20), true
	case col == 2:
		return tuple.String_("alpha"), tuple.String_("beta"), true
	case col == 1 && z.clean:
		return tuple.Float(0.5), tuple.Float(2.5), true
	case col == 3 && z.clean:
		return tuple.Bool(true), tuple.Bool(true), true
	}
	return tuple.Value{}, tuple.Value{}, false
}

func (z fakeZone) TickBounds() (lo, hi tuple.Value, ok bool) {
	return tuple.Int(100), tuple.Int(200), true
}

func (z fakeZone) IDBounds() (lo, hi tuple.Value, ok bool) {
	return tuple.Int(1000), tuple.Int(2000), true
}

func (z fakeZone) MayContainString(col int, s string) bool {
	if z.names == nil {
		return true
	}
	return z.names[s]
}

// intZone vouches for column 0 (k INT) alone, in [lo, hi].
type intZone struct{ lo, hi int64 }

func (z intZone) Bounds(col int) (lo, hi tuple.Value, ok bool) {
	return tuple.Int(z.lo), tuple.Int(z.hi), col == 0
}
func (intZone) TickBounds() (lo, hi tuple.Value, ok bool) { return lo, hi, false }
func (intZone) IDBounds() (lo, hi tuple.Value, ok bool)   { return lo, hi, false }
func (intZone) MayContainString(int, string) bool         { return true }

// verdict arms a fresh matcher of prog with z and names the root's
// verdict: "none" skips the segment, "all" selects it without a kernel.
func verdict(prog *vecProg, z ZoneView) string {
	m := newBatchMatcher(prog)
	switch {
	case m.Zone(z):
		return "none"
	case m.root == zAll:
		return "all"
	}
	return "some"
}

// verdictOf is verdict for a WHERE source.
func verdictOf(t *testing.T, where string, z ZoneView) string {
	t.Helper()
	e, err := Parse(where)
	if err != nil {
		t.Fatalf("%q: %v", where, err)
	}
	if e == nil {
		return verdict(nil, z)
	}
	if err := checkCols(e, matchSchema); err != nil {
		t.Fatalf("%q: %v", where, err)
	}
	return verdict(compileVecMatch(e, matchSchema), z)
}

func TestPruneRules(t *testing.T) {
	zone := fakeZone{names: map[string]bool{"alpha": true, "beta": true}}
	clean := fakeZone{clean: true}
	cases := []struct {
		where string
		z     ZoneView
		want  string
	}{
		{"k > 3", zone, "all"},
		{"k > 20", zone, "none"},
		{"k >= 20", zone, "some"},
		{"k < 10", zone, "none"},
		{"k <= 10", zone, "some"},
		{"k = 15", zone, "some"},
		{"k = 9", zone, "none"},
		{"k = 21", zone, "none"},
		{"21 = k", zone, "none"}, // literal-first mirrors
		{"21 > k", zone, "all"},
		{"10 > k", zone, "none"},
		{"k != 15", zone, "some"}, // bounds not collapsed
		{"k != 25", zone, "all"},
		{"k BETWEEN 30 AND 40", zone, "none"},
		{"k BETWEEN 5 AND 12", zone, "some"},
		{"k BETWEEN 5 AND 25", zone, "all"},
		{"k > 20 AND v = 1.5", zone, "none"}, // one false conjunct suffices
		{"v = 1.5 AND k > 3", zone, "some"},  // v may hold NaN
		{"k > 20 OR k < 5", zone, "none"},    // both branches false
		{"k > 20 OR k > 12", zone, "some"},
		{"k > 20 OR v = 1.5", zone, "some"},
		{"k > 3 OR v = 1.5", zone, "all"},  // v's errors are never reached
		{"v = 1.5 OR k > 3", zone, "some"}, // a NaN row errors before k
		{"name = \"gamma\"", zone, "none"}, // bloom miss
		{"name = \"alpha\"", zone, "some"}, // bloom hit
		{"\"gamma\" = name", zone, "none"}, // flipped bloom miss
		{"name != \"gamma\"", zone, "all"},
		{"name = \"aaaa\"", zone, "none"}, // bounds prove it: "aaaa" < lo "alpha"
		{"name < \"aaa\"", zone, "none"},  // below string lo
		{"name > \"zeta\"", zone, "none"}, // above string hi
		{"name < \"zeta\"", zone, "all"},
		{"name LIKE \"a%\"", zone, "some"},
		{"name IN (\"x\", \"y\")", zone, "none"},
		{"name IN (\"x\", \"alpha\")", zone, "some"},
		{"k IN (1, 2)", zone, "none"},
		{"k IN (1, 15)", zone, "some"},
		{"_t < 100", zone, "none"},
		{"_t <= 100", zone, "some"},
		{"_id > 2000", zone, "none"},
		{"_id >= 1000", zone, "all"},
		{"_f < 0.5", zone, "some"}, // freshness has no zone
		{"false", zone, "none"},
		{"true", zone, "all"},
		{"k = 15 AND false", zone, "none"},
		{"NOT k > 3", zone, "none"}, // NOT swaps none and all
		{"NOT k > 20", zone, "all"},
		{"NOT (k > 3 OR k < 0)", zone, "none"},
		// Only the root's skip may hide an error: inside a scanned
		// segment a node that can error is never decided.
		{"k / 0 = 1 AND k > 20", zone, "none"},
		{"NOT (k / 0 = 1 AND k > 20)", zone, "some"},
		{"NOT (v = 1.5 AND k > 20)", zone, "some"},
		{"k > 3 AND k / 0 = 1", zone, "some"},
		// A clean zone vouches for v and ok.
		{"v > 0.25", clean, "all"},
		{"v > 3.0", clean, "none"},
		{"v = 1.5 AND k > 3", clean, "some"},
		{"v < 3.0 AND k > 3", clean, "all"},
		{"NOT (v = 1.5 AND k > 20)", clean, "all"},
		{"ok", clean, "all"},
		{"NOT ok", clean, "none"},
		{"ok = false", clean, "none"},
		{"ok", zone, "some"},
		// Bounds compare as the kernels do, as float64 images: 2^53+1
		// rounds to 2^53.
		{"k > 9007199254740992", intZone{1<<53 + 1, 1<<53 + 1}, "none"},
		{"k = 9007199254740992", intZone{1<<53 + 1, 1<<53 + 1}, "all"},
		{"k != 9007199254740992", intZone{1<<53 + 1, 1<<53 + 1}, "none"},
		{"k IN (9007199254740992)", intZone{1<<53 + 1, 1<<53 + 1}, "some"},
		{"k < 9007199254740992", intZone{1 << 53, 1<<53 + 1}, "none"},
	}
	for _, c := range cases {
		if got := verdictOf(t, c.where, c.z); got != c.want {
			t.Errorf("%q over %+v: verdict %s, want %s", c.where, c.z, got, c.want)
		}
	}
}

// Special case in the table above: name = "aaaa" is outside the string
// bounds, so the verdict must be none even when the bloom abstains.
func TestPruneStringBoundsWithoutBloom(t *testing.T) {
	if got := verdictOf(t, "name = \"aaaa\"", fakeZone{}); got != "none" {
		t.Errorf("string bounds alone gave %s, want none", got)
	}
}

func TestPruneUnprunablePredicates(t *testing.T) {
	for _, where := range []string{
		"", "true", "v > 0.5", "_f < 1.0", "k + 1 > 3", "k > v",
		"NOT k > 20", "name LIKE \"a%\"", "k != 12",
	} {
		if verdictOf(t, where, fakeZone{}) == "none" {
			t.Errorf("%q skipped a segment it cannot reason about", where)
		}
	}
}

func TestPruneCompiledOnBind(t *testing.T) {
	stmt, err := ParseStatement("SELECT k FROM t WHERE k > ?")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := stmt.Plan(matchSchema)
	if err != nil {
		t.Fatal(err)
	}
	if got := verdict(plan.vec, fakeZone{}); got != "some" {
		t.Fatalf("unbound plan decided %s", got)
	}
	bound, err := plan.Bind([]tuple.Value{tuple.Int(20)})
	if err != nil {
		t.Fatal(err)
	}
	if got := verdict(bound.vec, fakeZone{}); got != "none" {
		t.Errorf("k > 20 over [10, 20]: bound plan decided %s", got)
	}
	// The cached plan is untouched.
	if got := verdict(plan.vec, fakeZone{}); got != "some" {
		t.Errorf("Bind mutated the cached plan: it decides %s", got)
	}
}
