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

// Aggregator accumulates the aggregate/GROUP BY stage of one SELECT
// over a stream of tuples. It is not safe for concurrent use; shard
// scans feed one Aggregator each and merge afterwards.
//
// Groups are numbered 0, 1, 2, … in first-seen order, and every
// per-group state is a column indexed by that ordinal. A group's key is
// one uint64 word per GROUP BY column: an INT, _t or _id value's bits; a
// FLOAT's bits, every NaN made one NaN and -0 kept apart from 0 (values
// are one group exactly when they render the same); a BOOL's 0 or 1; a
// STRING's local code, the order in which the aggregator first met it.
// One open-addressed table maps a key's words to its group; FeedBatch,
// Feed and Merge all go through it, so group identity has one
// definition.
type Aggregator struct {
	stmt    *SelectStmt
	targets []SelectTarget
	schema  *tuple.Schema
	params  []tuple.Value // bound `?` placeholders, nil when the statement has none

	// The statement lowered for FeedBatch: the GROUP BY columns
	// resolved to accessors, one cell per target.
	keys  []colAcc
	cells []aggCell

	// The group table; a statement without GROUP BY has the one group
	// 0, of no words. slots is a power of two at most half full, probed
	// linearly from the top bits of the key's Fibonacci hash (keys one
	// apart, like local string codes, land far apart); shift is 64 minus
	// the bits.
	groups int
	slots  []slot
	shift  uint8
	words  []uint64      // len(keys) per group
	vals   []tuple.Value // len(keys) per group: the key as output

	// strs numbers the distinct strings. byShard maps each STRING key
	// column's shard codes (tuple.ColView.Shard) to local code + 1, 0
	// where not yet met. An aggregator folds one shard for one query
	// under the shard's lock, so the codes hold still for its life; a
	// fold that released the lock and resumed would have to clear it.
	strs    map[string]uint32
	byShard [][]uint32

	// FeedBatch's scratch: the selected rows, the group and key words of
	// each (a column's words together), one row's words, the dictionary
	// translation of a batch without shard codes, and the
	// computed-argument row.
	rows []int
	ords []int32
	kw   []uint64
	key  []uint64
	loc  []uint32
	env  *TupleEnv
}

// aggCell is one target lowered for batch folding, with its state
// columns. A bare-column argument folds off the column slices (col), any
// other is evaluated per row (expr), COUNT(*) has neither; group-key
// targets (AggNone) fold nothing. COUNT and AVG count in n, SUM and AVG
// add in sum, MIN and MAX keep the extreme in ext (invalid until met).
type aggCell struct {
	agg  AggKind
	col  colAcc
	expr Expr
	n    []uint64
	sum  []float64
	ext  []tuple.Value
}

// newAggregator returns an empty accumulator for a statement whose
// targets and grouping have been validated against schema.
func newAggregator(stmt *SelectStmt, targets []SelectTarget, schema *tuple.Schema, params []tuple.Value) *Aggregator {
	a := &Aggregator{stmt: stmt, targets: targets, schema: schema, params: params, slots: make([]slot, 8), shift: 64 - 3}
	a.keys = make([]colAcc, len(stmt.GroupBy))
	for i, name := range stmt.GroupBy {
		a.keys[i], _ = resolveCol(name, schema)
	}
	a.byShard = make([][]uint32, len(a.keys))
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
	if len(a.keys) == 0 {
		a.group(nil)
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

// FeedBatch folds every selected row of a column batch into the exact
// state (and on failure the exact error) a Feed call per selected row
// would produce. Each target folds column-at-a-time in ascending row
// order, so a cell sees its values in Feed's order (float sums match bit
// for bit) and the error is that of the first failing (row, target) pair
// in Feed's row-major order. Only a computed argument decodes rows.
// Under GROUP BY, rows first find their group (groupRows); without it
// every row folds into group 0, off the selection bitmap.
func (a *Aggregator) FeedBatch(b *tuple.Batch, sel []uint64) error {
	var ords []int32
	if len(a.keys) > 0 {
		if ords = a.groupRows(b, sel); len(ords) == 0 {
			return nil
		}
	}
	errRow, err := b.N, error(nil)
	for ti := range a.cells {
		if at, e := a.foldCell(ti, b, sel, ords); e != nil && at < errRow {
			errRow, err = at, e
		}
	}
	return err
}

// groupRows lists the selected rows in a.rows and returns the group of
// each, adding new keys. It runs loops over the rows whose loads do not
// wait on one another: a key column at a time, every row's word; then
// every row's hash and first slot (probe). Only a row whose first slot
// is empty or holds another key probes on.
func (a *Aggregator) groupRows(b *tuple.Batch, sel []uint64) []int32 {
	if a.rows == nil {
		a.rows = make([]int, 0, tuple.BatchRows)
	}
	a.rows = tuple.AppendSet(a.rows[:0], sel)
	rows, n, nk := a.rows, len(a.rows), len(a.keys)
	if n == 0 {
		return nil
	}
	if cap(a.ords) < n {
		a.ords = make([]int32, max(n, tuple.BatchRows))
	}
	if cap(a.kw) < n*nk {
		a.kw = make([]uint64, max(n, tuple.BatchRows)*nk)
	}
	ords, kw := a.ords[:n], a.kw[:n*nk]
	for c := range a.keys {
		a.keyWords(kw[c*n:c*n+n], b, c, rows)
	}
	if !probe(ords, kw, a.slots, a.shift, a.words) {
		a.fit()
		return ords
	}
	for i, g := range ords {
		if g >= 0 {
			continue
		}
		w := a.key[:0]
		for c := range a.keys {
			w = append(w, kw[c*n+i])
		}
		a.key = w
		h := hashWords(w)
		if g = a.find(h, w); g < 0 {
			g = a.add(h, w)
			a.vals = grown(a.vals, nk)
			for _, c := range a.keys {
				a.vals = append(a.vals, batchValue(c, b, rows[i]))
			}
		}
		ords[i] = g
	}
	a.fit()
	return ords
}

// probe sets each row's group from its first slot when the group there
// has the row's key (kw holds column c's words at c*n), else -1, and
// reports whether any row missed. The hash (hashWords) decides a
// one-word key by itself: hashing one word is a bijection.
func probe(ords []int32, kw []uint64, slots []slot, shift uint8, words []uint64) (miss bool) {
	n := len(ords)
	nk, shift := len(kw)/n, shift&63
	for i := range ords {
		h := kw[i] * hashMul
		for c := i + n; c < len(kw); c += n {
			h = (h ^ kw[c]) * hashMul
		}
		s := slots[h>>shift]
		g := s.ord - 1
		if g < 0 || s.h != h {
			g, miss = -1, true
		}
		ords[i] = g
	}
	for c := 0; nk > 1 && c < nk; c++ {
		col := kw[c*n : c*n+n]
		for i, g := range ords {
			if g >= 0 && words[int(g)*nk+c] != col[i] {
				ords[i], miss = -1, true
			}
		}
	}
	return miss
}

// keyWords writes key column c's word of each listed row to dst.
func (a *Aggregator) keyWords(dst []uint64, b *tuple.Batch, c int, rows []int) {
	switch acc := a.keys[c]; {
	case acc.sys == 1:
		intWords(dst, rows, b.Ts)
	case acc.sys == 2:
		floatWords(dst, rows, b.Fs)
	case acc.sys == 3:
		intWords(dst, rows, b.IDs)
	case acc.kind == tuple.KindInt:
		intWords(dst, rows, b.Cols[acc.idx].Ints)
	case acc.kind == tuple.KindFloat:
		floatWords(dst, rows, b.Cols[acc.idx].Floats)
	case acc.kind == tuple.KindBool:
		bs := b.Cols[acc.idx].Bools
		for i, j := range rows {
			dst[i] = b2u(bs[j])
		}
	default:
		a.stringWords(dst, c, &b.Cols[acc.idx], rows)
	}
}

func intWords[T int64 | tuple.ID](dst []uint64, rows []int, xs []T) {
	for i, j := range rows {
		dst[i] = uint64(xs[j])
	}
}

func floatWords(dst []uint64, rows []int, xs []float64) {
	for i, j := range rows {
		dst[i] = floatWord(xs[j])
	}
}

// floatWord is a FLOAT key's word: its bits, with every NaN made the
// same NaN.
func floatWord(f float64) uint64 {
	if f != f {
		f = math.NaN()
	}
	return math.Float64bits(f)
}

// stringWords is keyWords for a STRING column: the local code. A batch
// with shard codes translates through column c's byShard, so a string
// is hashed once per shard per query; a batch without translates its
// own dictionary afresh.
func (a *Aggregator) stringWords(dst []uint64, c int, cv *tuple.ColView, rows []int) {
	tr, shard := a.byShard[c], cv.Shard
	if shard == nil {
		tr = extend(a.loc[:0], len(cv.Dict))
	}
	for i := translate(dst, rows, cv.Codes, shard, tr); i < len(rows); i += translate(dst[i:], rows[i:], cv.Codes, shard, tr) {
		// Row i's string is new to the table: learn it.
		d := cv.Codes[rows[i]]
		x := d
		if shard != nil {
			x = shard[d]
		}
		tr = extend(tr, int(x)+1)
		tr[x] = a.intern(cv.Dict[d], len(cv.Dict)) + 1
	}
	if shard == nil {
		a.loc = tr
	} else {
		a.byShard[c] = tr
	}
}

// translate is stringWords' loop, with no call in it: it stops at the
// first row whose string tr lacks and returns how many rows it did.
func translate(dst []uint64, rows []int, codes, shard, tr []uint32) int {
	for i, j := range rows {
		x := codes[j]
		if shard != nil {
			x = shard[x]
		}
		if int(x) >= len(tr) || tr[x] == 0 {
			return i
		}
		dst[i] = uint64(tr[x] - 1)
	}
	return len(rows)
}

// intern returns the local code of s, numbering it when new. hint sizes
// the table when it is made.
func (a *Aggregator) intern(s string, hint int) uint32 {
	code, ok := a.strs[s]
	if !ok {
		if a.strs == nil {
			a.strs = make(map[string]uint32, hint)
		}
		code = uint32(len(a.strs))
		a.strs[s] = code
	}
	return code
}

// valueWord is a key value's word (see Aggregator), for Feed and Merge.
func (a *Aggregator) valueWord(v tuple.Value) uint64 {
	switch v.Kind() {
	case tuple.KindInt:
		return uint64(v.AsInt())
	case tuple.KindFloat:
		return floatWord(v.AsFloat())
	case tuple.KindString:
		return uint64(a.intern(v.AsString(), 0))
	case tuple.KindBool:
		return b2u(v.AsBool())
	}
	return 0
}

// hashWords hashes a key's words; the table reads the top bits.
func hashWords(kw []uint64) uint64 {
	h := uint64(0)
	for _, w := range kw {
		h = (h ^ w) * hashMul
	}
	return h
}

// hashMul is 2^64 divided by the golden ratio, the Fibonacci hash's
// multiplier.
const hashMul = 0x9e3779b97f4a7c15

// find returns the group whose key words are kw, of hash h, or -1.
func (a *Aggregator) find(h uint64, kw []uint64) int32 {
	slots, nk, mask := a.slots, len(kw), uint64(len(a.slots)-1)
	for s := h >> a.shift; slots[s].ord != 0; s = (s + 1) & mask {
		if g := int(slots[s].ord - 1); slots[s].h == h && slices.Equal(a.words[g*nk:g*nk+nk], kw) {
			return int32(g)
		}
	}
	return -1
}

// add gives the key of words kw and hash h the next ordinal, doubling a
// table more than half full; the caller appends the key's values.
func (a *Aggregator) add(h uint64, kw []uint64) int32 {
	g := int32(a.groups)
	a.groups++
	a.words = append(grown(a.words, len(kw)), kw...)
	if 2*a.groups <= len(a.slots) {
		a.place(h, g)
		return g
	}
	a.slots, a.shift = make([]slot, 2*len(a.slots)), a.shift-1
	for o, nk := 0, len(kw); o < a.groups; o++ {
		a.place(hashWords(a.words[o*nk:o*nk+nk]), int32(o))
	}
	return g
}

// place enters group g, of hash h, in the first free slot from h's.
func (a *Aggregator) place(h uint64, g int32) {
	mask := uint64(len(a.slots) - 1)
	s := h >> a.shift
	for a.slots[s].ord != 0 {
		s = (s + 1) & mask
	}
	a.slots[s] = slot{h: h, ord: g + 1}
}

// slot is one entry of the group table: a group's ordinal + 1 (0 when
// empty) beside its key's hash, which a probe reads without leaving the
// slot.
type slot struct {
	h   uint64
	ord int32
}

// group returns the group of the key with the given values, adding it
// when new: the lookup of Feed and Merge.
func (a *Aggregator) group(vals []tuple.Value) int32 {
	kw := a.kw[:0]
	for _, v := range vals {
		kw = append(kw, a.valueWord(v))
	}
	a.kw = kw
	h := hashWords(kw)
	g := a.find(h, kw)
	if g < 0 {
		g = a.add(h, kw)
		a.vals = append(grown(a.vals, len(vals)), vals...)
		a.fit()
	}
	return g
}

// fit extends every cell's state columns, zeroed, to the group count.
func (a *Aggregator) fit() {
	for i := range a.cells {
		c := &a.cells[i]
		switch c.agg {
		case AggCount:
			c.n = extend(c.n, a.groups)
		case AggSum:
			c.sum = extend(c.sum, a.groups)
		case AggAvg:
			c.n, c.sum = extend(c.n, a.groups), extend(c.sum, a.groups)
		case AggMin, AggMax:
			c.ext = extend(c.ext, a.groups)
		}
	}
}

// grown returns s with room for n more elements, at least doubling it
// when it moves: append's 1.25x would copy a large table many times.
func grown[T any](s []T, n int) []T {
	if len(s)+n > cap(s) {
		s = slices.Grow(s, max(n, len(s), 8))
	}
	return s
}

// extend returns s lengthened to n, the new elements zero.
func extend[T any](s []T, n int) []T {
	if m := len(s); n > m {
		s = grown(s, n-m)[:n]
		clear(s[m:])
	}
	return s
}

// foldCell folds target ti over the batch's selected rows, into the
// group of each (ords, of the rows in a.rows) or, with ords nil, group
// 0. It returns the first row the fold fails on and its error, or b.N
// and nil.
func (a *Aggregator) foldCell(ti int, b *tuple.Batch, sel []uint64, ords []int32) (int, error) {
	c := &a.cells[ti]
	at := -1
	switch {
	case c.agg == AggNone:
	case c.expr != nil:
		// A computed argument is the fold's interpreted leaf.
		if a.env == nil {
			a.env = &TupleEnv{Schema: a.schema, Tuple: new(tuple.Tuple), Params: a.params}
		}
		if at, err := a.eachRow(sel, ords, func(g int32, j int) error {
			b.ReadRow(j, a.env.Tuple)
			v, err := c.expr.Eval(a.env)
			if err == nil {
				err = c.observe(g, v)
			}
			return err
		}); err != nil {
			return at, err
		}
	case c.col.kind == tuple.KindInvalid || c.agg == AggCount:
		n := c.n // a local: stores through c.n would reload it per row
		if ords == nil {
			n[0] += uint64(tuple.PopCount(sel))
		}
		for _, g := range ords {
			n[g]++
		}
	case c.col.sys == 1:
		at = foldNum(c, sel, ords, a.rows, b.Ts, tuple.Int)
	case c.col.sys == 2:
		at = foldNum(c, sel, ords, a.rows, b.Fs, tuple.Float)
	case c.col.sys == 3:
		at = foldNum(c, sel, ords, a.rows, b.IDs, func(id tuple.ID) tuple.Value { return tuple.Int(int64(id)) })
	case c.col.kind == tuple.KindInt:
		at = foldNum(c, sel, ords, a.rows, b.Cols[c.col.idx].Ints, tuple.Int)
	case c.col.kind == tuple.KindFloat:
		at = foldNum(c, sel, ords, a.rows, b.Cols[c.col.idx].Floats, tuple.Float)
	default:
		// STRING and BOOL: no sum, and an extreme is boxed either way.
		cv := &b.Cols[c.col.idx]
		if at, err := a.eachRow(sel, ords, func(g int32, j int) error {
			return c.observe(g, cv.Value(j))
		}); err != nil {
			return at, err
		}
	}
	if at >= 0 {
		return at, incomparableErr(c.agg)
	}
	return b.N, nil
}

// eachRow calls f on every selected row, in ascending row order, with
// the row's group (see foldCell). It returns the first row f fails on
// and f's error, or -1 and nil.
func (a *Aggregator) eachRow(sel []uint64, ords []int32, f func(g int32, j int) error) (int, error) {
	if ords == nil {
		for w, m := range sel {
			for ; m != 0; m &= m - 1 {
				j := w<<6 + bits.TrailingZeros64(m)
				if err := f(0, j); err != nil {
					return j, err
				}
			}
		}
		return -1, nil
	}
	for i, j := range a.rows {
		if err := f(ords[i], j); err != nil {
			return j, err
		}
	}
	return -1, nil
}

// observe folds v into group g: the row-at-a-time step of computed
// arguments, STRING and BOOL columns and Feed.
func (c *aggCell) observe(g int32, v tuple.Value) error {
	switch c.agg {
	case AggCount:
		c.n[g]++
	case AggSum, AggAvg:
		f, ok := v.Numeric()
		if !ok {
			return fmt.Errorf("query: %s over non-numeric %s", c.agg, v.Kind())
		}
		if c.agg == AggAvg {
			c.n[g]++
		}
		c.sum[g] += f
	case AggMin, AggMax:
		if !c.keep(g, v) {
			return incomparableErr(c.agg)
		}
	default:
		return fmt.Errorf("query: bad aggregate")
	}
	return nil
}

// keep folds v into group g's extreme, which a value replaces only
// when strictly better; it reports false when the two are incomparable.
func (c *aggCell) keep(g int32, v tuple.Value) bool {
	cur := &c.ext[g]
	if !cur.IsValid() {
		*cur = v
		return true
	}
	cmp, ok := v.Compare(*cur)
	if ok && (c.agg == AggMin && cmp < 0 || c.agg == AggMax && cmp > 0) {
		*cur = v
	}
	return ok
}

// foldNum folds a numeric column slice into cell c with observe's
// semantics: SUM/AVG add the float64 image; MIN/MAX compare by it
// (improves) and box only when the extreme moves. It returns the first
// row that meets a NaN (incomparable), or -1. Under GROUP BY it walks
// the listed rows and their groups; without, group 0's sum and extreme
// stay in registers for the batch (foldFlat).
func foldNum[T numCol](c *aggCell, sel []uint64, ords []int32, rows []int, xs []T, box func(T) tuple.Value) int {
	if ords == nil {
		return foldFlat(c, sel, xs, box)
	}
	switch c.agg {
	case AggSum:
		sum := c.sum
		for i, j := range rows {
			sum[ords[i]] += float64(xs[j])
		}
		return -1
	case AggAvg:
		n, sum := c.n, c.sum
		for i, j := range rows {
			g := ords[i]
			n[g]++
			sum[g] += float64(xs[j])
		}
		return -1
	}
	ext, isMax := c.ext, c.agg == AggMax
	for i, j := range rows {
		cur := &ext[ords[i]]
		if cur.IsValid() {
			y, _ := cur.Numeric()
			if better, ok := improves(isMax, float64(xs[j]), y); !ok {
				return j
			} else if !better {
				continue
			}
		}
		*cur = box(xs[j])
	}
	return -1
}

// foldFlat is foldNum into group 0. The sum adds in a register in
// ascending row order; the extreme is kept as T beside its float image
// and boxed once, at the end of the batch, so of two values with one
// image (INT 2^53 and 2^53+1) the first seen stays.
func foldFlat[T numCol](c *aggCell, sel []uint64, xs []T, box func(T) tuple.Value) int {
	if c.agg == AggSum || c.agg == AggAvg {
		if c.agg == AggAvg {
			c.n[0] += uint64(tuple.PopCount(sel))
		}
		sum := c.sum[0]
		for w, m := range sel {
			for ; m != 0; m &= m - 1 {
				sum += float64(xs[w<<6+bits.TrailingZeros64(m)])
			}
		}
		c.sum[0] = sum
		return -1
	}
	cur := &c.ext[0]
	have, moved, at, isMax := cur.IsValid(), false, -1, c.agg == AggMax
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

// Merge folds another partial accumulator (built over a disjoint tuple
// set, e.g. another shard) into a. b must come from the same statement;
// it must not be used afterwards. b's groups are looked up in a's table
// once each, in b's first-seen order.
func (a *Aggregator) Merge(b *Aggregator) error {
	nk := len(a.keys)
	for g := range int32(b.groups) {
		o := a.group(b.vals[int(g)*nk : int(g+1)*nk])
		for ti := range a.cells {
			if err := a.cells[ti].merge(o, &b.cells[ti], g); err != nil {
				return err
			}
		}
	}
	return nil
}

// merge folds group g of b into group o of c: counts and sums add,
// extremes compare.
func (c *aggCell) merge(o int32, b *aggCell, g int32) error {
	switch c.agg {
	case AggCount, AggAvg:
		c.n[o] += b.n[g]
	}
	switch c.agg {
	case AggSum, AggAvg:
		c.sum[o] += b.sum[g]
	case AggMin, AggMax:
		if v := b.ext[g]; v.IsValid() && !c.keep(o, v) {
			return incomparableErr(c.agg)
		}
	}
	return nil
}

// incomparableErr is the error of a MIN or MAX that meets two values it
// cannot order. The row fold, the batch fold and Merge word it alike, so
// an answer's error does not depend on how its rows fell across shards.
func incomparableErr(agg AggKind) error {
	return fmt.Errorf("query: %s over incomparable kinds", agg)
}

// result is group g's value of the cell's aggregate.
func (c *aggCell) result(g int) tuple.Value {
	switch c.agg {
	case AggCount:
		return tuple.Int(int64(c.n[g]))
	case AggSum:
		return tuple.Float(c.sum[g])
	case AggAvg:
		if c.n[g] == 0 {
			return tuple.Float(0)
		}
		return tuple.Float(c.sum[g] / float64(c.n[g]))
	}
	return c.ext[g]
}

// Grid finalises the groups into the statement's output grid, every row
// cut from one slab, and applies ORDER BY and LIMIT. A statement
// without GROUP BY has exactly one row, even over zero tuples.
func (a *Aggregator) Grid() (*Grid, error) {
	w, nk := len(a.targets), len(a.keys)
	g := &Grid{Cols: make([]string, w), Rows: make([][]tuple.Value, a.groups)}
	slab := make([]tuple.Value, a.groups*w)
	var keyIdx []int
	for j, t := range a.targets {
		g.Cols[j] = t.Alias
		if t.Agg != AggNone {
			for r := range a.groups {
				slab[r*w+j] = a.cells[j].result(r)
			}
			continue
		}
		keyIdx = append(keyIdx, j)
		k := slices.Index(a.stmt.GroupBy, t.Expr.(Col).Name)
		for r := range a.groups {
			slab[r*w+j] = a.vals[r*nk+k]
		}
	}
	for r := range g.Rows {
		g.Rows[r] = slab[r*w : r*w+w : r*w+w]
	}
	// Deterministic default order: by group key.
	if nk > 0 && len(a.stmt.OrderBy) == 0 {
		sortGridByKeys(g, keyIdx)
	}
	if err := orderAndLimit(g, a.stmt); err != nil {
		return nil, err
	}
	return g, nil
}
