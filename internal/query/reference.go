package query

import "fungusdb/internal/tuple"

// This file is the reference evaluator, called by tests and by no
// engine route: over the tuples the WHERE clause selected, in ID order,
// it projects each row (executePlain) or folds each into one aggregator
// (executeGrouped, Aggregator.Feed), then sorts and cuts at LIMIT. The
// engine's folds must return its rows in its order, or its error text.

// Execute evaluates the statement's target/group/order/limit stages
// over the given tuples (already filtered by WHERE, in ID order).
func Execute(stmt *SelectStmt, schema *tuple.Schema, tuples []tuple.Tuple) (*Grid, error) {
	p, err := (&Statement{sel: stmt}).Plan(schema)
	if err != nil {
		return nil, err
	}
	return p.reference(tuples, nil)
}

// reference is Execute for a plan, with its placeholders bound to
// params.
func (p *Plan) reference(tuples []tuple.Tuple, params []tuple.Value) (*Grid, error) {
	if p.agg {
		return executeGrouped(p, tuples, params)
	}
	return executePlain(p, tuples, params)
}

func executePlain(p *Plan, tuples []tuple.Tuple, params []tuple.Value) (*Grid, error) {
	g := &Grid{Cols: p.cols}
	for i := range tuples {
		row := make([]tuple.Value, len(p.targets))
		if err := projectRow(p.targets, TupleEnv{Schema: p.schema, Tuple: &tuples[i], Params: params}, row); err != nil {
			return nil, err
		}
		g.Rows = append(g.Rows, row)
	}
	if err := orderAndLimit(g, p.stmt); err != nil {
		return nil, err
	}
	return g, nil
}

func executeGrouped(p *Plan, tuples []tuple.Tuple, params []tuple.Value) (*Grid, error) {
	agg := p.NewAggregator(params)
	for i := range tuples {
		if err := agg.Feed(&tuples[i]); err != nil {
			return nil, err
		}
	}
	return agg.Grid()
}

// Feed folds one tuple into the accumulator: the row-at-a-time fold
// FeedBatch is checked against.
func (a *Aggregator) Feed(tp *tuple.Tuple) error {
	env := TupleEnv{Schema: a.schema, Tuple: tp, Params: a.params}
	keyVals := make([]tuple.Value, len(a.stmt.GroupBy))
	for j, c := range a.stmt.GroupBy {
		v, err := env.Lookup(c)
		if err != nil {
			return err
		}
		keyVals[j] = v
	}
	g := a.group(keyVals)
	for j, t := range a.targets {
		if t.Agg == AggNone {
			continue
		}
		var v tuple.Value
		if t.Expr != nil {
			var err error
			if v, err = t.Expr.Eval(env); err != nil {
				return err
			}
		}
		if err := a.cells[j].observe(g, v); err != nil {
			return err
		}
	}
	return nil
}
