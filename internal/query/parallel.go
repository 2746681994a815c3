package query

import (
	"fmt"
	"math"
	"slices"

	"fungusdb/internal/tuple"
)

// This file is the shard-parallel half of SELECT execution. A scan over
// a sharded extent produces one partial result per shard; aggregate and
// GROUP BY stages merge those partials instead of materialising every
// matching tuple in one place:
//
//	aggs := one Plan.NewAggregator per shard
//	shard scan i: aggs[i].FeedBatch(batch, selection)  (parallel)
//	for i > 0: aggs[0].Merge(aggs[i])                (shard order)
//	grid := aggs[0].Grid()
//
// Every aggregate the engine supports merges losslessly: COUNT and SUM
// add, MIN/MAX compare, AVG carries (sum, n). Merging in ascending
// shard order keeps the output deterministic for a fixed shard count —
// group "first seen" order and floating-point addition order depend
// only on the data placement, never on goroutine scheduling.

// aggGroup is one GROUP BY bucket; its aggregate cells live inline.
type aggGroup struct {
	key  []tuple.Value
	aggs []aggState
}

// Aggregator accumulates the aggregate/GROUP BY stage of one SELECT
// over a stream of tuples. It is not safe for concurrent use; shard
// scans feed one Aggregator each and merge afterwards.
type Aggregator struct {
	stmt    *SelectStmt
	targets []SelectTarget
	schema  *tuple.Schema
	order   []*aggGroup   // first-seen group order
	params  []tuple.Value // bound `?` placeholders, nil when the statement has none

	// The statement lowered for FeedBatch: the GROUP BY columns
	// resolved to accessors, one cell per target.
	keys  []colAcc
	cells []aggCell
	// The typed index over the buckets (see keyNode), and FeedBatch's
	// scratch: the batch's selected rows with the bucket of each, the
	// computed-argument row.
	nodes []keyNode
	edges map[keyEdge]int32
	rows  []int
	grps  []*aggGroup
	env   *TupleEnv
}

// aggCell is one target lowered for batch folding: a bare-column
// argument folds off the column slices (col), any other is evaluated
// per row (expr), COUNT(*) has neither. Group-key targets (AggNone)
// fold nothing.
type aggCell struct {
	agg  AggKind
	col  colAcc
	expr Expr
}

// keyNode is one node of the typed group index: the first d GROUP BY
// values of a row lead from the root (node 0) to one node, the next
// column's value along a keyEdge to the next, the whole key to the node
// that holds the bucket. Nodes and edges are flat (a slice, one map): a
// high-cardinality key makes many of them.
type keyNode struct {
	grp *aggGroup
	// byCode caches the edges by dictionary code when the next column is
	// a STRING, so a string is hashed once per (segment, distinct value),
	// not per row. Codes are per segment (seg is byCode's). A node earns
	// the table only by meeting as many rows of the segment (seen) as the
	// table has entries: under a high-cardinality prefix most nodes meet
	// one row, and a table each would outweigh the extent many times.
	seg    uint64
	seen   int
	byCode []int32
}

type keyEdge struct {
	from int32
	v    tuple.Value
}

// newAggregator returns an empty accumulator for a statement whose
// targets and grouping have been validated against schema.
func newAggregator(stmt *SelectStmt, targets []SelectTarget, schema *tuple.Schema, params []tuple.Value) *Aggregator {
	a := &Aggregator{stmt: stmt, targets: targets, schema: schema, params: params,
		nodes: make([]keyNode, 1), edges: map[keyEdge]int32{}}
	a.keys = make([]colAcc, len(stmt.GroupBy))
	for i, name := range stmt.GroupBy {
		a.keys[i], _ = resolveCol(name, schema)
	}
	a.cells = make([]aggCell, len(targets))
	for i, t := range targets {
		c := aggCell{agg: t.Agg, expr: t.Expr}
		if col, ok := t.Expr.(Col); ok {
			if c.col, ok = resolveCol(col.Name, schema); ok {
				c.expr = nil
			}
		}
		a.cells[i] = c
	}
	return a
}

// checkGrouping validates that plain targets are GROUP BY columns.
func checkGrouping(stmt *SelectStmt, targets []SelectTarget, schema *tuple.Schema) error {
	groupSet := map[string]bool{}
	for _, c := range stmt.GroupBy {
		if c != tuple.SysTick && c != tuple.SysFresh && c != tuple.SysID && schema.Index(c) < 0 {
			return fmt.Errorf("query: unknown GROUP BY column %q", c)
		}
		groupSet[c] = true
	}
	for _, t := range targets {
		if t.Agg != AggNone {
			continue
		}
		c, ok := t.Expr.(Col)
		if !ok || !groupSet[c.Name] {
			return fmt.Errorf("query: non-aggregate target %q must be a GROUP BY column", t.Alias)
		}
	}
	return nil
}

// Feed folds one tuple into the accumulator: the row-at-a-time form
// the finishing stages of a materialised answer use, and the reference
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
	grp := a.group(keyVals)
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
		if err := grp.aggs[j].observe(t.Agg, v); err != nil {
			return err
		}
	}
	return nil
}

// FeedBatch folds every selected row of a column batch into the exact
// state (and on failure the exact error) a Feed call per selected row
// would produce. Rows find their bucket through the typed group index,
// then each target folds column-at-a-time in ascending row order, so a
// cell sees its values in Feed's order (float sums match bit for bit)
// and the error is that of the first failing (row, target) pair in
// Feed's row-major order. Only a computed argument decodes rows.
func (a *Aggregator) FeedBatch(b *tuple.Batch, sel []uint64) error {
	if a.rows == nil {
		a.rows = make([]int, 0, tuple.BatchRows)
	}
	a.rows = tuple.AppendSet(a.rows[:0], sel)
	if len(a.rows) == 0 {
		return nil
	}
	if cap(a.grps) < len(a.rows) {
		a.grps = make([]*aggGroup, cap(a.rows))
	}
	grps := a.grps[:len(a.rows)]
	for i, j := range a.rows {
		at := int32(0)
		for _, c := range a.keys {
			at = a.child(at, c, b, j)
		}
		if grps[i] = a.nodes[at].grp; grps[i] == nil {
			key := make([]tuple.Value, len(a.keys))
			for k, c := range a.keys {
				key[k] = batchValue(c, b, j)
			}
			grps[i] = a.bucket(at, key)
		}
	}
	errRow, err := b.N, error(nil)
	for ti := range a.cells {
		if at, e := a.foldCell(ti, b, grps); e != nil && at < errRow {
			errRow, err = at, e
		}
	}
	return err
}

// child returns the node one GROUP BY column further along row j's key.
func (a *Aggregator) child(at int32, c colAcc, b *tuple.Batch, j int) int32 {
	if c.sys == 0 && c.kind == tuple.KindString {
		cv, code := &b.Cols[c.idx], int(b.Cols[c.idx].Codes[j])
		if n := &a.nodes[at]; n.seg != b.Seg {
			n.seg, n.seen, n.byCode = b.Seg, 0, nil
		} else if code < len(n.byCode) && n.byCode[code] != 0 {
			return n.byCode[code]
		}
		k := a.kid(at, tuple.String_(cv.Dict[code]))
		if n := &a.nodes[at]; n.seen < len(cv.Dict) {
			n.seen++
		} else {
			if len(n.byCode) < len(cv.Dict) {
				n.byCode = append(n.byCode, make([]int32, len(cv.Dict)-len(n.byCode))...)
			}
			n.byCode[code] = k
		}
		return k
	}
	return a.kid(at, batchValue(c, b, j))
}

// kid follows (creating if needed) the edge from node at by value v.
// Two values are one bucket exactly when they render the same: floats
// key by their bits (-0 is not 0), every NaN by the same ones.
func (a *Aggregator) kid(at int32, v tuple.Value) int32 {
	if v.Kind() == tuple.KindFloat {
		f := v.AsFloat()
		if f != f {
			f = math.NaN()
		}
		v = tuple.Int(int64(math.Float64bits(f)))
	}
	k, ok := a.edges[keyEdge{at, v}]
	if !ok {
		k = int32(len(a.nodes))
		if k == int32(cap(a.nodes)) {
			a.nodes = slices.Grow(a.nodes, len(a.nodes)) // double: append's 1.25x copies a big index five times over
		}
		a.nodes = append(a.nodes, keyNode{})
		a.edges[keyEdge{at, v}] = k
	}
	return k
}

// foldCell folds target ti over the batch's selected rows (a.rows,
// bucketed in grps). It returns the first row the fold fails on and
// that row's error, or b.N and nil.
func (a *Aggregator) foldCell(ti int, b *tuple.Batch, grps []*aggGroup) (int, error) {
	c := &a.cells[ti]
	at := -1
	switch {
	case c.agg == AggNone:
	case c.expr != nil:
		// A computed argument is the fold's interpreted leaf.
		if a.env == nil {
			a.env = &TupleEnv{Schema: a.schema, Tuple: new(tuple.Tuple), Params: a.params}
		}
		for i, j := range a.rows {
			b.ReadRow(j, a.env.Tuple)
			v, err := c.expr.Eval(a.env)
			if err == nil {
				err = grps[i].aggs[ti].observe(c.agg, v)
			}
			if err != nil {
				return j, err
			}
		}
	case c.col.kind == tuple.KindInvalid || c.agg == AggCount:
		for _, g := range grps {
			g.aggs[ti].n++
		}
	case c.col.sys == 1:
		at = foldNum(grps, ti, a.rows, b.Ts, c.agg, tuple.Int)
	case c.col.sys == 2:
		at = foldNum(grps, ti, a.rows, b.Fs, c.agg, tuple.Float)
	case c.col.sys == 3:
		at = foldNum(grps, ti, a.rows, b.IDs, c.agg, func(id tuple.ID) tuple.Value { return tuple.Int(int64(id)) })
	case c.col.kind == tuple.KindInt:
		at = foldNum(grps, ti, a.rows, b.Cols[c.col.idx].Ints, c.agg, tuple.Int)
	case c.col.kind == tuple.KindFloat:
		at = foldNum(grps, ti, a.rows, b.Cols[c.col.idx].Floats, c.agg, tuple.Float)
	default:
		// STRING and BOOL: no sum, and an extreme is boxed either way.
		cv := &b.Cols[c.col.idx]
		for i, j := range a.rows {
			if err := grps[i].aggs[ti].observe(c.agg, cv.Value(j)); err != nil {
				return j, err
			}
		}
	}
	if at >= 0 {
		return at, fmt.Errorf("query: %s over incomparable kinds", c.agg)
	}
	return b.N, nil
}

// foldNum folds a numeric column slice into cell ti of each selected
// row's bucket with aggState.observe's semantics: SUM/AVG add the
// float64 image; MIN/MAX compare by it, boxing only when the extreme
// moves, and return the first row that meets a NaN (incomparable).
func foldNum[T ~int64 | ~uint64 | ~float64](grps []*aggGroup, ti int, rows []int, xs []T, agg AggKind, box func(T) tuple.Value) int {
	if agg == AggSum || agg == AggAvg {
		for i, j := range rows {
			st := &grps[i].aggs[ti]
			st.n++
			st.sum += float64(xs[j])
		}
		return -1
	}
	for i, j := range rows {
		st := &grps[i].aggs[ti]
		st.n++
		cur := &st.min
		if agg == AggMax {
			cur = &st.max
		}
		if cur.IsValid() {
			x := float64(xs[j])
			y, _ := cur.Numeric()
			if x != x || y != y {
				return j
			}
			if x == y || (x < y) == (agg == AggMax) {
				continue
			}
		}
		*cur = box(xs[j])
	}
	return -1
}

// group returns (creating if needed) the bucket of the given key values.
func (a *Aggregator) group(keyVals []tuple.Value) *aggGroup {
	at := int32(0)
	for _, v := range keyVals {
		at = a.kid(at, v)
	}
	if grp := a.nodes[at].grp; grp != nil {
		return grp
	}
	return a.bucket(at, keyVals)
}

// bucket opens the bucket of the key that leads to node at.
func (a *Aggregator) bucket(at int32, keyVals []tuple.Value) *aggGroup {
	grp := &aggGroup{key: keyVals, aggs: make([]aggState, len(a.targets))}
	a.nodes[at].grp = grp
	a.order = append(a.order, grp)
	return grp
}

// Merge folds another partial accumulator (built over a disjoint tuple
// set, e.g. another shard) into a. b must come from the same statement;
// it must not be used afterwards.
func (a *Aggregator) Merge(b *Aggregator) error {
	for _, src := range b.order {
		grp := a.group(src.key)
		for j, t := range a.targets {
			if t.Agg == AggNone {
				continue
			}
			if err := grp.aggs[j].merge(&src.aggs[j]); err != nil {
				return err
			}
		}
	}
	return nil
}

// merge folds the partial cell b into a. COUNT/SUM/AVG add their (n,
// sum) carriers; MIN/MAX compare — every aggregate merges losslessly.
func (a *aggState) merge(b *aggState) error {
	a.n += b.n
	a.sum += b.sum
	if b.min.IsValid() {
		if !a.min.IsValid() {
			a.min = b.min
		} else if cmp, ok := b.min.Compare(a.min); !ok {
			return fmt.Errorf("query: MIN merge over incomparable kinds")
		} else if cmp < 0 {
			a.min = b.min
		}
	}
	if b.max.IsValid() {
		if !a.max.IsValid() {
			a.max = b.max
		} else if cmp, ok := b.max.Compare(a.max); !ok {
			return fmt.Errorf("query: MAX merge over incomparable kinds")
		} else if cmp > 0 {
			a.max = b.max
		}
	}
	return nil
}

// Grid finalises the accumulated groups into the statement's output
// grid, applying ORDER BY and LIMIT.
func (a *Aggregator) Grid() (*Grid, error) {
	g := &Grid{}
	for _, t := range a.targets {
		g.Cols = append(g.Cols, t.Alias)
	}
	if len(a.stmt.GroupBy) == 0 {
		// Whole-extent aggregate: exactly one row, even over zero tuples.
		grp := &aggGroup{aggs: make([]aggState, len(a.targets))}
		if len(a.order) == 1 {
			grp = a.order[0]
		}
		row := make([]tuple.Value, len(a.targets))
		for j, t := range a.targets {
			row[j] = grp.aggs[j].result(t.Agg)
		}
		g.Rows = append(g.Rows, row)
	} else {
		for _, grp := range a.order {
			row := make([]tuple.Value, len(a.targets))
			for j, t := range a.targets {
				if t.Agg == AggNone {
					c := t.Expr.(Col)
					for gi, gc := range a.stmt.GroupBy {
						if gc == c.Name {
							row[j] = grp.key[gi]
						}
					}
					continue
				}
				row[j] = grp.aggs[j].result(t.Agg)
			}
			g.Rows = append(g.Rows, row)
		}
		// Deterministic default order: by group key.
		if len(a.stmt.OrderBy) == 0 {
			keyIdx := []int{}
			for j, t := range a.targets {
				if t.Agg == AggNone {
					keyIdx = append(keyIdx, j)
				}
			}
			sortGridByKeys(g, keyIdx)
		}
	}
	if err := orderAndLimit(g, a.stmt); err != nil {
		return nil, err
	}
	return g, nil
}
