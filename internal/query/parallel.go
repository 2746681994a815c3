package query

import (
	"fmt"
	"math"
	"math/bits"
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
	// scratch: under GROUP BY the batch's selected rows with the index
	// node and then the bucket of each; the computed-argument row.
	nodes []keyNode
	edges map[keyEdge]int32
	rows  []int
	at    []int32
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
	// byCode caches the edges by shard code (tuple.ColView.Shard) when
	// the next column is a STRING, so a node with the table hashes a
	// string once per distinct value it meets in the shard, not once per
	// row or per segment. An aggregator folds one shard for one query,
	// under the shard's lock, so the codes hold still for its whole
	// life. The root keeps a table from its first row. Any deeper node
	// earns one only once it has hashed (seen) twice as many rows as the
	// table would have entries: under a high-cardinality prefix most
	// nodes meet one row, and a table each would outweigh the extent
	// many times.
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
// would produce. Each target folds column-at-a-time in ascending row
// order, so a cell sees its values in Feed's order (float sums match bit
// for bit) and the error is that of the first failing (row, target) pair
// in Feed's row-major order. Only a computed argument decodes rows.
// Under GROUP BY, rows first find their bucket through the typed group
// index; without it every row folds straight into the one bucket, off
// the selection bitmap.
func (a *Aggregator) FeedBatch(b *tuple.Batch, sel []uint64) error {
	var grps []*aggGroup
	if len(a.keys) == 0 {
		if a.nodes[0].grp == nil {
			a.bucket(0, nil)
		}
	} else if grps = a.bucketRows(b, sel); len(grps) == 0 {
		return nil
	}
	errRow, err := b.N, error(nil)
	for ti := range a.cells {
		if at, e := a.foldCell(ti, b, sel, grps); e != nil && at < errRow {
			errRow, err = at, e
		}
	}
	return err
}

// bucketRows lists the selected rows in a.rows and returns the bucket of
// each, opening the buckets of keys not seen before. It walks the key a
// column at a time, a.at holding each row's node so far.
func (a *Aggregator) bucketRows(b *tuple.Batch, sel []uint64) []*aggGroup {
	if a.rows == nil {
		a.rows = make([]int, 0, tuple.BatchRows)
		a.at = make([]int32, tuple.BatchRows)
		a.grps = make([]*aggGroup, tuple.BatchRows)
	}
	a.rows = tuple.AppendSet(a.rows[:0], sel)
	rows, at := a.rows, a.at[:len(a.rows)]
	clear(at)
	for _, c := range a.keys {
		if c.sys == 0 && c.kind == tuple.KindString && b.Cols[c.idx].Shard != nil {
			a.childCodes(at, rows, &b.Cols[c.idx])
			continue
		}
		for i, j := range rows {
			at[i] = a.kid(at[i], batchValue(c, b, j))
		}
	}
	grps := a.grps[:len(rows)]
	for i, j := range rows {
		if grps[i] = a.nodes[at[i]].grp; grps[i] == nil {
			key := make([]tuple.Value, len(a.keys))
			for k, c := range a.keys {
				key[k] = batchValue(c, b, j)
			}
			grps[i] = a.bucket(at[i], key)
		}
	}
	return grps
}

// childCodes moves each listed row's node one STRING column further,
// through the nodes' shard-code tables where they have them.
func (a *Aggregator) childCodes(at []int32, rows []int, cv *tuple.ColView) {
	codes, shard := cv.Codes, cv.Shard
	for i, j := range rows {
		sc := shard[codes[j]]
		if t := a.nodes[at[i]].byCode; int(sc) < len(t) && t[sc] != 0 {
			at[i] = t[sc]
			continue
		}
		at[i] = a.learn(at[i], int(sc), cv.Dict[codes[j]], len(cv.Dict))
	}
}

// learn follows (creating if needed) the edge from node at by the
// string s, of shard code sc, and enters it in the node's table when
// the node has earned one (see keyNode). dict is the size of the
// segment's dictionary, the table's first size.
func (a *Aggregator) learn(at int32, sc int, s string, dict int) int32 {
	k := a.kid(at, tuple.String_(s))
	n := &a.nodes[at]
	n.seen++
	if want := sc + 1; at == 0 || 2*want <= n.seen {
		if want > len(n.byCode) {
			size := max(want, 2*len(n.byCode), dict)
			if at != 0 {
				size = min(size, n.seen/2)
			}
			n.byCode = append(n.byCode, make([]int32, size-len(n.byCode))...)
		}
		n.byCode[sc] = k
	}
	return k
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

// foldCell folds target ti over the batch's selected rows: into the
// bucket of each (grps, listed in a.rows) or, with grps nil, into the one
// bucket. It returns the first row the fold fails on and that row's
// error, or b.N and nil.
func (a *Aggregator) foldCell(ti int, b *tuple.Batch, sel []uint64, grps []*aggGroup) (int, error) {
	c := &a.cells[ti]
	at := -1
	switch {
	case c.agg == AggNone:
	case c.expr != nil:
		// A computed argument is the fold's interpreted leaf.
		if a.env == nil {
			a.env = &TupleEnv{Schema: a.schema, Tuple: new(tuple.Tuple), Params: a.params}
		}
		if at, err := a.eachRow(ti, sel, grps, func(st *aggState, j int) error {
			b.ReadRow(j, a.env.Tuple)
			v, err := c.expr.Eval(a.env)
			if err == nil {
				err = st.observe(c.agg, v)
			}
			return err
		}); err != nil {
			return at, err
		}
	case c.col.kind == tuple.KindInvalid || c.agg == AggCount:
		if grps == nil {
			a.order[0].aggs[ti].n += uint64(tuple.PopCount(sel))
		}
		for _, g := range grps {
			g.aggs[ti].n++
		}
	case c.col.sys == 1:
		at = foldNum(a, ti, sel, grps, b.Ts, c.agg, tuple.Int)
	case c.col.sys == 2:
		at = foldNum(a, ti, sel, grps, b.Fs, c.agg, tuple.Float)
	case c.col.sys == 3:
		at = foldNum(a, ti, sel, grps, b.IDs, c.agg, func(id tuple.ID) tuple.Value { return tuple.Int(int64(id)) })
	case c.col.kind == tuple.KindInt:
		at = foldNum(a, ti, sel, grps, b.Cols[c.col.idx].Ints, c.agg, tuple.Int)
	case c.col.kind == tuple.KindFloat:
		at = foldNum(a, ti, sel, grps, b.Cols[c.col.idx].Floats, c.agg, tuple.Float)
	default:
		// STRING and BOOL: no sum, and an extreme is boxed either way.
		cv := &b.Cols[c.col.idx]
		if at, err := a.eachRow(ti, sel, grps, func(st *aggState, j int) error {
			return st.observe(c.agg, cv.Value(j))
		}); err != nil {
			return at, err
		}
	}
	if at >= 0 {
		return at, fmt.Errorf("query: %s over incomparable kinds", c.agg)
	}
	return b.N, nil
}

// eachRow calls f on every selected row, in ascending row order, with
// cell ti of the row's bucket (see foldCell). It returns the first row f
// fails on and f's error, or -1 and nil.
func (a *Aggregator) eachRow(ti int, sel []uint64, grps []*aggGroup, f func(st *aggState, j int) error) (int, error) {
	if grps == nil {
		st := &a.order[0].aggs[ti]
		for w, m := range sel {
			for ; m != 0; m &= m - 1 {
				j := w<<6 + bits.TrailingZeros64(m)
				if err := f(st, j); err != nil {
					return j, err
				}
			}
		}
		return -1, nil
	}
	for i, j := range a.rows {
		if err := f(&grps[i].aggs[ti], j); err != nil {
			return j, err
		}
	}
	return -1, nil
}

// foldNum folds a numeric column slice into cell ti with
// aggState.observe's semantics: SUM/AVG add the float64 image; MIN/MAX
// compare by it (improves) and box only when the extreme moves. It
// returns the first row that meets a NaN (incomparable), or -1. Under
// GROUP BY it walks each selected row's bucket; without, the one cell's
// sum and extreme stay in registers for the batch (foldFlat).
func foldNum[T numCol](a *Aggregator, ti int, sel []uint64, grps []*aggGroup, xs []T, agg AggKind, box func(T) tuple.Value) int {
	if grps == nil {
		return foldFlat(&a.order[0].aggs[ti], sel, xs, agg, box)
	}
	if agg == AggSum || agg == AggAvg {
		for i, j := range a.rows {
			st := &grps[i].aggs[ti]
			st.n++
			st.sum += float64(xs[j])
		}
		return -1
	}
	for i, j := range a.rows {
		st := &grps[i].aggs[ti]
		st.n++
		cur := &st.min
		if agg == AggMax {
			cur = &st.max
		}
		if cur.IsValid() {
			y, _ := cur.Numeric()
			if better, ok := improves(agg == AggMax, float64(xs[j]), y); !ok {
				return j
			} else if !better {
				continue
			}
		}
		*cur = box(xs[j])
	}
	return -1
}

// foldFlat is foldNum into one cell. The sum adds in a register in
// ascending row order; the extreme is kept as T beside its float image
// and boxed once, at the end of the batch, so of two values with one
// image (INT 2^53 and 2^53+1) the first seen stays.
func foldFlat[T numCol](st *aggState, sel []uint64, xs []T, agg AggKind, box func(T) tuple.Value) int {
	st.n += uint64(tuple.PopCount(sel))
	if agg == AggSum || agg == AggAvg {
		sum := st.sum
		for w, m := range sel {
			for ; m != 0; m &= m - 1 {
				sum += float64(xs[w<<6+bits.TrailingZeros64(m)])
			}
		}
		st.sum = sum
		return -1
	}
	cur := &st.min
	if agg == AggMax {
		cur = &st.max
	}
	have, moved, at, isMax := cur.IsValid(), false, -1, agg == AggMax
	y, _ := cur.Numeric()
	var ext T
scan:
	for w, m := range sel {
		for ; m != 0; m &= m - 1 {
			j := w<<6 + bits.TrailingZeros64(m)
			x := float64(xs[j])
			if have {
				if better, ok := improves(isMax, x, y); !ok {
					at = j
					break scan
				} else if !better {
					continue
				}
			}
			ext, y, have, moved = xs[j], x, true, true
		}
	}
	if moved {
		*cur = box(ext)
	}
	return at
}

// improves is the one MIN/MAX step of the numeric folds: whether x, the
// float image of a new value, strictly improves on y, the current
// extreme's, so that a tie keeps the first seen. ok is false when either
// is NaN (incomparable).
func improves(isMax bool, x, y float64) (better, ok bool) {
	if isMax && x <= y || !isMax && x >= y {
		return false, true // a tie or worse, the common case: one comparison
	}
	ok = x == x && y == y // otherwise x is strictly better, or a NaN is involved
	return ok, ok
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
