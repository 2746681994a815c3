package query

import (
	"testing"

	"fungusdb/internal/tuple"
)

// fakeZone is a hand-rolled ZoneView for rule-level tests: column 0 is
// k INT in [10, 20], column 2 is name STRING in {"alpha","beta"},
// ticks span [100, 200], IDs [1000, 2000].
type fakeZone struct{ names map[string]bool }

func (z fakeZone) Bounds(col int) (lo, hi tuple.Value, ok bool) {
	switch col {
	case 0:
		return tuple.Int(10), tuple.Int(20), true
	case 2:
		return tuple.String_("alpha"), tuple.String_("beta"), true
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

// pruneOf lowers a WHERE source to its segment-prune checks, nil when
// no conjunct is prunable.
func pruneOf(t *testing.T, where string) *Pruner {
	t.Helper()
	e, err := Parse(where)
	if err != nil {
		t.Fatalf("%q: %v", where, err)
	}
	if err := checkCols(e, matchSchema); err != nil {
		t.Fatalf("%q: %v", where, err)
	}
	return compilePrune(e, matchSchema)
}

func TestPruneRules(t *testing.T) {
	zone := fakeZone{names: map[string]bool{"alpha": true, "beta": true}}
	cases := []struct {
		where string
		skip  bool
	}{
		{"k > 3", false},
		{"k > 20", true},
		{"k >= 20", false},
		{"k < 10", true},
		{"k <= 10", false},
		{"k = 15", false},
		{"k = 9", true},
		{"k = 21", true},
		{"21 = k", true},   // literal-first mirrors
		{"21 > k", false},  // k < 21 possible
		{"10 > k", true},   // k < 10 impossible
		{"k != 15", false}, // bounds not collapsed
		{"k BETWEEN 30 AND 40", true},
		{"k BETWEEN 5 AND 12", false},
		{"k > 20 AND v = 1.5", true}, // one dead conjunct suffices
		{"v = 1.5 AND k > 3", false}, // v has no bounds
		{"k > 20 OR k < 5", true},    // both branches dead
		{"k > 20 OR k > 12", false},  // live branch
		{"k > 20 OR v = 1.5", false}, // unprunable branch disables the OR
		{"name = \"gamma\"", true},   // bloom miss
		{"name = \"alpha\"", false},  // bloom hit
		{"\"gamma\" = name", true},   // flipped bloom miss
		{"name = \"aaaa\"", true},    // bounds prove it: "aaaa" < lo "alpha"
		{"name < \"aaa\"", true},     // below string lo
		{"name > \"zeta\"", true},    // above string hi
		{"name IN (\"x\", \"y\")", true},
		{"name IN (\"x\", \"alpha\")", false},
		{"k IN (1, 2)", true},
		{"k IN (1, 15)", false},
		{"_t < 100", true},
		{"_t <= 100", false},
		{"_id > 2000", true},
		{"_id >= 1000", false},
		{"_f < 0.5", false}, // freshness never prunes
		{"false", true},
		{"k = 15 AND false", true},
		{"NOT k > 3", false}, // NOT is never lowered
	}
	for _, c := range cases {
		pruner := pruneOf(t, c.where)
		if pruner == nil {
			if c.skip {
				t.Errorf("%q: no pruner compiled but skip expected", c.where)
			}
			continue
		}
		if got := pruner.Skip(zone); got != c.skip {
			t.Errorf("%q: skip = %v, want %v", c.where, got, c.skip)
		}
	}
}

// Special case in the table above: name = "aaaa" is outside the string
// bounds, so the range half of the combined rule must prune even when
// the bloom (fake: unknown values miss) would already do it. Verify
// the bounds proof alone suffices when the bloom abstains.
func TestPruneStringBoundsWithoutBloom(t *testing.T) {
	pruner := pruneOf(t, "name = \"aaaa\"")
	zone := fakeZone{} // nil names: bloom always says maybe
	if pruner == nil || !pruner.Skip(zone) {
		t.Error("string bounds alone did not prune")
	}
}

func TestPruneUnprunablePredicates(t *testing.T) {
	for _, where := range []string{
		"", "true", "v > 0.5", "_f < 1.0", "k + 1 > 3", "k > v",
		"NOT k > 20", "name LIKE \"a%\"", "k != 12",
	} {
		if pruner := pruneOf(t, where); pruner != nil && pruner.Skip(fakeZone{}) {
			t.Errorf("%q pruned a segment it cannot reason about", where)
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
	if plan.Pruner() != nil {
		t.Fatal("unbound plan has a pruner")
	}
	bound, err := plan.Bind([]tuple.Value{tuple.Int(20)})
	if err != nil {
		t.Fatal(err)
	}
	if bound.Pruner() == nil {
		t.Fatal("bound plan lost its pruner")
	}
	if !bound.Pruner().Skip(fakeZone{}) {
		t.Error("k > 20 did not prune [10, 20]")
	}
	// The cached plan is untouched.
	if plan.Pruner() != nil {
		t.Error("Bind mutated the cached plan")
	}
}
