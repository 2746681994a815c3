package query

import (
	"strings"
	"testing"

	"fungusdb/internal/tuple"
)

func TestLimitPlaceholderParses(t *testing.T) {
	stmt, err := ParseSelect("SELECT k FROM t WHERE k > ? LIMIT ?")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Params != 2 {
		t.Errorf("Params = %d, want 2", stmt.Params)
	}
	if stmt.LimitParam != 1 {
		t.Errorf("LimitParam = %d, want 1 (assigned in parse order)", stmt.LimitParam)
	}
	if stmt.Limit != 0 {
		t.Errorf("Limit = %d, want 0 until bind", stmt.Limit)
	}
	// A literal limit keeps the sentinel.
	stmt, err = ParseSelect("SELECT k FROM t LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.LimitParam != -1 || stmt.Limit != 5 {
		t.Errorf("literal limit parsed as %d/%d", stmt.Limit, stmt.LimitParam)
	}
}

func TestLimitPlaceholderBind(t *testing.T) {
	st, err := ParseStatement("SELECT k FROM t WHERE k >= ? ORDER BY k LIMIT ?")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := st.Plan(matchSchema)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumParams() != 2 {
		t.Fatalf("NumParams = %d", plan.NumParams())
	}
	// Arity is checked by BindCheck like any placeholder.
	if err := plan.BindCheck([]tuple.Value{tuple.Int(1)}); err == nil {
		t.Error("short param list accepted")
	}
	// Type and sign are checked at bind.
	if _, err := plan.Bind([]tuple.Value{tuple.Int(1), tuple.String_("x")}); err == nil ||
		!strings.Contains(err.Error(), "LIMIT wants INT") {
		t.Errorf("string limit: %v", err)
	}
	if _, err := plan.Bind([]tuple.Value{tuple.Int(1), tuple.Int(-3)}); err == nil ||
		!strings.Contains(err.Error(), ">= 0") {
		t.Errorf("negative limit: %v", err)
	}
	bound, err := plan.Bind([]tuple.Value{tuple.Int(1), tuple.Int(7)})
	if err != nil {
		t.Fatal(err)
	}
	if bound.Limit() != 7 {
		t.Errorf("bound Limit = %d, want 7", bound.Limit())
	}
	if plan.Limit() != 0 {
		t.Errorf("cached plan Limit mutated to %d", plan.Limit())
	}
	// Binding zero means unlimited, like a missing LIMIT clause.
	bound, err = plan.Bind([]tuple.Value{tuple.Int(1), tuple.Int(0)})
	if err != nil {
		t.Fatal(err)
	}
	if bound.Limit() != 0 {
		t.Errorf("zero limit = %d", bound.Limit())
	}
}

func TestLimitPlaceholderGroupedFinish(t *testing.T) {
	// The bound limit must reach the aggregator's finishing stages.
	st, err := ParseStatement("SELECT name, COUNT(*) AS n FROM t GROUP BY name ORDER BY n DESC LIMIT ?")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := st.Plan(matchSchema)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := plan.Bind([]tuple.Value{tuple.Int(2)})
	if err != nil {
		t.Fatal(err)
	}
	g, err := bound.reference(matchTuples(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Rows) != 2 {
		t.Errorf("grouped rows = %d, want LIMIT 2", len(g.Rows))
	}
}
