package query

import (
	"fmt"
	"strconv"

	"fungusdb/internal/sketch"
	"fungusdb/internal/tuple"
)

// Plan is a Statement compiled against one schema: every static check
// has passed, targets are expanded, the ask operand is coerced, and the
// routing decision (stream / aggregate / consume / digest) is captured.
// Plans are immutable and safe for concurrent use, so one Plan can back
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
	where   Expr           // nil = always true
	stmt    *SelectStmt    // nil for ask plans
	targets []SelectTarget // expanded projection; nil for ask plans
	ask     *AskStmt       // nil for SELECT plans
	askVal  tuple.Value    // coerced has-operand (zero when parameterised)
	cols    []string
	params  int
	agg     bool

	// proj lowers each output column of a streaming plan to a column
	// slot (see lowerTargets); computed marks plans with at least one
	// target that still evaluates an expression per row.
	proj     []int
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

// Plan compiles the statement against schema. All column references,
// grouping rules and ask operands are validated here, never at execute
// time.
func (s *Statement) Plan(schema *tuple.Schema) (*Plan, error) {
	if s.ask != nil {
		return planAsk(s.ask, schema, s.src)
	}
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
		p.proj, p.computed = lowerTargets(targets, schema)
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

func planAsk(ask *AskStmt, schema *tuple.Schema, src string) (*Plan, error) {
	p := &Plan{schema: schema, src: src, mode: Peek, ask: ask, params: ask.Params, limitParam: -1}
	if ask.Op != AskCount {
		if schema.Index(ask.Col) < 0 {
			return nil, fmt.Errorf("query: unknown column %q (schema: %s)", ask.Col, schema)
		}
	}
	switch ask.Op {
	case AskTop:
		p.cols = []string{"item", "count"}
	case AskHas:
		p.cols = []string{"contains"}
		if !ask.HasParam {
			v, err := coerceToColumn(schema, ask.Col, ask.RawValue)
			if err != nil {
				return nil, err
			}
			p.askVal = v
		}
	default:
		p.cols = []string{"value"}
	}
	return p, nil
}

// coerceToColumn parses raw source text into the named column's kind —
// the compile-time half of the old per-request value guessing.
func coerceToColumn(schema *tuple.Schema, col, raw string) (tuple.Value, error) {
	switch schema.Column(schema.Index(col)).Kind {
	case tuple.KindInt:
		n, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			return tuple.Value{}, fmt.Errorf("query: column %q wants INT, got %q", col, raw)
		}
		return tuple.Int(n), nil
	case tuple.KindFloat:
		f, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return tuple.Value{}, fmt.Errorf("query: column %q wants FLOAT, got %q", col, raw)
		}
		return tuple.Float(f), nil
	case tuple.KindBool:
		b, err := strconv.ParseBool(raw)
		if err != nil {
			return tuple.Value{}, fmt.Errorf("query: column %q wants BOOL, got %q", col, raw)
		}
		return tuple.Bool(b), nil
	}
	return tuple.String_(raw), nil
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
func (p *Plan) Ordered() bool { return p.stmt != nil && len(p.stmt.OrderBy) > 0 }

// Limit returns the resolved LIMIT (0 = unlimited). For `LIMIT ?`
// plans the value is known only on the plan Bind returns.
func (p *Plan) Limit() int { return p.limit }

// IsAsk reports whether the plan answers a knowledge-container
// question rather than scanning the extent.
func (p *Plan) IsAsk() bool { return p.ask != nil }

// Ask returns the validated ask statement, nil for SELECT plans.
func (p *Plan) Ask() *AskStmt { return p.ask }

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
		if p.stmt != nil {
			// The finishing stages (orderAndLimit, the aggregator)
			// read the statement's Limit; give the bound plan its own
			// copy so the cached plan stays pristine.
			stmt := *p.stmt
			stmt.Limit = q.limit
			q.stmt = &stmt
		}
	}
	if p.where != nil {
		q.where = bindExpr(p.where, params)
	}
	if p.targets != nil {
		targets := make([]SelectTarget, len(p.targets))
		copy(targets, p.targets)
		for i := range targets {
			if targets[i].Expr != nil {
				targets[i].Expr = bindExpr(targets[i].Expr, params)
			}
		}
		q.targets = targets
	}
	q.compileExec()
	return &q, nil
}

// Finish runs the statement's target/group/order/limit stages over a
// materialised matching set — the barrier path for plans that cannot
// stream (ORDER BY, aggregates executed locally, consume).
func (p *Plan) Finish(tuples []tuple.Tuple, params []tuple.Value) (*Grid, error) {
	if p.agg {
		return executeGrouped(p.stmt, p.targets, p.schema, tuples, params)
	}
	return executePlain(p.stmt, p.targets, p.schema, tuples, params)
}

// NewAggregator returns an empty accumulator for the plan's aggregate
// stage with the given parameters bound. The plan already validated
// the statement, so construction cannot fail; make one per shard and
// Merge in shard order.
func (p *Plan) NewAggregator(params []tuple.Value) *Aggregator {
	return newAggregator(p.stmt, p.targets, p.schema, params)
}

// DigestView is the read surface of a knowledge-container digest that
// ask plans evaluate against (satisfied by container.Digest).
type DigestView interface {
	Count() uint64
	NDV(col string) (uint64, error)
	Mean(col string) (float64, error)
	Sum(col string) (float64, error)
	Quantile(col string, q float64) (float64, error)
	HeavyHitters(col string, n int) ([]sketch.Entry, error)
	MayContain(col string, v tuple.Value) (bool, error)
}

// AskRows answers the plan's digest question and returns the result as
// a (small, memory-backed) Rows stream: scalar questions yield one
// ["value"] row, `top` yields up to K ["item","count"] rows, `has`
// yields one ["contains"] row.
func (p *Plan) AskRows(d DigestView, params []tuple.Value) (*Rows, error) {
	ask := p.ask
	if ask == nil {
		return nil, fmt.Errorf("query: not an ask plan")
	}
	scalar := func(v float64) (*Rows, error) {
		return NewValueRows(p.cols, p.mode, [][]tuple.Value{{tuple.Float(v)}}, 0), nil
	}
	switch ask.Op {
	case AskCount:
		return scalar(float64(d.Count()))
	case AskNDV:
		v, err := d.NDV(ask.Col)
		if err != nil {
			return nil, err
		}
		return scalar(float64(v))
	case AskMean:
		v, err := d.Mean(ask.Col)
		if err != nil {
			return nil, err
		}
		return scalar(v)
	case AskSum:
		v, err := d.Sum(ask.Col)
		if err != nil {
			return nil, err
		}
		return scalar(v)
	case AskQuantile:
		v, err := d.Quantile(ask.Col, ask.Quantile)
		if err != nil {
			return nil, err
		}
		return scalar(v)
	case AskTop:
		entries, err := d.HeavyHitters(ask.Col, ask.K)
		if err != nil {
			return nil, err
		}
		rows := make([][]tuple.Value, len(entries))
		for i, e := range entries {
			rows[i] = []tuple.Value{tuple.String_(e.Item), tuple.Int(int64(e.Count))}
		}
		return NewValueRows(p.cols, p.mode, rows, 0), nil
	case AskHas:
		v := p.askVal
		if ask.HasParam {
			v = params[0]
		}
		b, err := d.MayContain(ask.Col, v)
		if err != nil {
			return nil, err
		}
		return NewValueRows(p.cols, p.mode, [][]tuple.Value{{tuple.Bool(b)}}, 0), nil
	}
	return nil, fmt.Errorf("query: bad ask op %d", ask.Op)
}
