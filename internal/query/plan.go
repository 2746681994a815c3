package query

import (
	"fmt"
	"slices"

	"fungusdb/internal/tuple"
)

// Plan is a Statement compiled against one schema: every static check
// has passed, targets are expanded, and the routing decision (stream /
// aggregate / consume) is captured. Plans are immutable and safe for concurrent use, so one Plan can back
// any number of concurrent Execute calls — the engine caches them per
// table, keyed by source text.
//
// The split mirrors the classical prepare/execute contract: Plan pays
// the parse + validation cost once at compile time (where conflicts
// belong), Execute binds parameters and streams rows.
type Plan struct {
	schema  *tuple.Schema
	src     string
	mode    Mode
	where   Expr // nil = always true
	stmt    *SelectStmt
	targets []SelectTarget // expanded projection
	cols    []string
	params  int
	agg     bool

	// proj lowers each output column of a streaming plan to a column
	// slot and kinds gives its hand-off column's kind (see
	// lowerTargets); computed marks plans with at least one target that
	// still evaluates an expression per row.
	proj     []int
	kinds    []tuple.Kind
	computed bool

	// Compiled execution state. vec is the WHERE clause lowered to the
	// batch program, which also decides the segment verdicts (nil
	// without a WHERE); Bind re-lowers it once placeholders have become
	// literals. order is the ORDER BY list resolved to output-column
	// indices at compile time.
	vec        *vecProg
	order      []orderIdx
	limit      int // resolved LIMIT (0 = unlimited)
	limitParam int // `LIMIT ?` placeholder index, -1 when literal
}

// Plan compiles the statement against schema. All column references
// and grouping rules are validated here, never at execute time.
func (s *Statement) Plan(schema *tuple.Schema) (*Plan, error) {
	stmt := s.sel
	targets, err := expandTargets(stmt, schema)
	if err != nil {
		return nil, err
	}
	if stmt.Where != nil {
		if err := checkCols(stmt.Where, schema); err != nil {
			return nil, err
		}
	}
	agg := len(stmt.GroupBy) > 0
	for _, t := range targets {
		if t.Agg != AggNone {
			agg = true
		}
	}
	if agg {
		if err := checkGrouping(stmt, targets, schema); err != nil {
			return nil, err
		}
	}
	mode := Peek
	if stmt.Consume {
		mode = Consume
	}
	cols := make([]string, len(targets))
	for i, t := range targets {
		cols[i] = t.Alias
	}
	p := &Plan{
		schema:     schema,
		src:        s.src,
		mode:       mode,
		where:      stmt.Where,
		stmt:       stmt,
		targets:    targets,
		cols:       cols,
		params:     stmt.Params,
		agg:        agg,
		limit:      stmt.Limit,
		limitParam: stmt.LimitParam,
	}
	if !agg {
		p.proj, p.kinds, p.computed = lowerTargets(targets, schema)
	}
	// Resolve ORDER BY keys against the output columns once, here —
	// a misspelt sort column is a compile error, not a per-execute
	// surprise.
	if len(stmt.OrderBy) > 0 {
		order, err := resolveOrderKeys(stmt.OrderBy, cols)
		if err != nil {
			return nil, err
		}
		p.order = order
	}
	p.compileExec()
	return p, nil
}

// compileExec lowers the WHERE clause into the batch program.
func (p *Plan) compileExec() {
	if p.where == nil {
		return
	}
	p.vec = compileVecMatch(p.where, p.schema)
}

// Schema returns the schema the plan compiled against.
func (p *Plan) Schema() *tuple.Schema { return p.schema }

// Source returns the statement source text.
func (p *Plan) Source() string { return p.src }

// Mode returns the plan's read semantics (Peek or Consume).
func (p *Plan) Mode() Mode { return p.mode }

// Consume reports whether executing discards the answered tuples.
func (p *Plan) Consume() bool { return p.mode == Consume }

// Aggregated reports whether the plan runs the aggregate/GROUP BY
// stage (and therefore merges per-shard partial aggregators).
func (p *Plan) Aggregated() bool { return p.agg }

// Ordered reports whether the plan needs a sort barrier before the
// first row can be emitted.
func (p *Plan) Ordered() bool { return len(p.stmt.OrderBy) > 0 }

// Limit returns the resolved LIMIT (0 = unlimited). For `LIMIT ?`
// plans the value is known only on the plan Bind returns.
func (p *Plan) Limit() int { return p.limit }

// Cols returns the output column names.
func (p *Plan) Cols() []string { return p.cols }

// NumParams returns the number of `?` placeholders Execute must bind.
func (p *Plan) NumParams() int { return p.params }

// BindCheck validates the bound parameter list's arity. Value typing
// is enforced where the parameter is used (comparisons and aggregates
// reject incompatible kinds), because a placeholder's kind is not
// statically known.
func (p *Plan) BindCheck(params []tuple.Value) error {
	if len(params) != p.params {
		return fmt.Errorf("query: statement wants %d parameter(s), got %d", p.params, len(params))
	}
	for i, v := range params {
		if !v.IsValid() {
			return fmt.Errorf("query: parameter ?%d is invalid", i+1)
		}
	}
	return nil
}

// Bind substitutes the parameters into the plan's expressions as
// literals, returning a derived zero-parameter plan that evaluates at
// literal speed (no per-tuple parameter resolution): the bound WHERE
// clause is re-lowered into the batch program, and a
// `LIMIT ?` placeholder resolves (and type-checks) here. The caller
// must have BindCheck-ed params first; plans without placeholders
// return themselves. The original plan is untouched — one cached Plan
// serves any number of concurrent bindings.
func (p *Plan) Bind(params []tuple.Value) (*Plan, error) {
	if p.params == 0 {
		return p, nil
	}
	q := *p
	q.params = 0
	if p.limitParam >= 0 {
		v := params[p.limitParam]
		if v.Kind() != tuple.KindInt {
			return nil, fmt.Errorf("query: LIMIT wants INT, got %s", v.Kind())
		}
		n := v.AsInt()
		if n < 0 {
			return nil, fmt.Errorf("query: LIMIT must be >= 0, got %d", n)
		}
		q.limit = int(n)
		q.limitParam = -1
		// The finishing stages (orderAndLimit, the aggregator) read the
		// statement's Limit; give the bound plan its own copy so the
		// cached plan stays pristine.
		stmt := *p.stmt
		stmt.Limit = q.limit
		q.stmt = &stmt
	}
	if p.where != nil {
		q.where = bindExpr(p.where, params)
	}
	q.targets = slices.Clone(p.targets)
	for i := range q.targets {
		if q.targets[i].Expr != nil {
			q.targets[i].Expr = bindExpr(q.targets[i].Expr, params)
		}
	}
	q.compileExec()
	return &q, nil
}

// OrderRows sorts projected rows, given in ID order, by the plan's
// ORDER BY (stably, so ties keep ID order) and cuts them at its LIMIT:
// the last stage of a row plan that collected its whole answer.
func (p *Plan) OrderRows(rows [][]tuple.Value) ([][]tuple.Value, error) {
	g := &Grid{Cols: p.cols, Rows: rows}
	if err := orderAndLimit(g, p.stmt); err != nil {
		return nil, err
	}
	return g.Rows, nil
}

// NewAggregator returns an empty accumulator for the plan's aggregate
// stage with the given parameters bound. The plan already validated
// the statement, so construction cannot fail; make one per shard and
// Merge in shard order.
func (p *Plan) NewAggregator(params []tuple.Value) *Aggregator {
	return newAggregator(p.stmt, p.targets, p.schema, params)
}
