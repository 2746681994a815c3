package query

import (
	"fmt"
	"math/bits"
	"sort"

	"fungusdb/internal/tuple"
)

// This file implements the ORDER BY top-k push-down: instead of
// materialising every matching tuple behind a sort barrier, each shard
// folds its matches into a bounded heap of k = LIMIT rows, and the
// engine merges the per-shard survivors — peak result memory
// O(shards × k) regardless of how many tuples match. Materialisation is
// late: sort keys compare on the typed column slices of the scan batch,
// and only a row that enters the heap has its output columns boxed.
//
// Ordering is (ORDER BY keys, tuple ID ascending), which is exactly
// the total order the materialised path produces: its rows arrive in
// global ID order and go through a stable sort on the keys.

// orderIdx is one ORDER BY key resolved to an output-column index at
// plan compile time.
type orderIdx struct {
	col  string
	idx  int
	desc bool
}

// resolveOrderKeys resolves ORDER BY columns against the output
// columns (last match wins, matching historical behaviour). It is the
// single resolver behind Plan compilation and the raw Execute path, so
// the two cannot drift.
func resolveOrderKeys(orderBy []OrderKey, cols []string) ([]orderIdx, error) {
	out := make([]orderIdx, len(orderBy))
	for i, key := range orderBy {
		idx := -1
		for j, c := range cols {
			if c == key.Col {
				idx = j
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("query: ORDER BY %q is not an output column (%v)", key.Col, cols)
		}
		out[i] = orderIdx{col: key.Col, idx: idx, desc: key.Desc}
	}
	return out, nil
}

// decide is the one per-key step of the row order, shared by every
// walker so the sort barrier and the top-k heaps cannot drift: given the
// comparison of two rows on key k it reports whether that settles the
// order and, if so, whether the first row sorts first (DESC reversed).
// An incomparable pair settles it arbitrarily (but consistently within a
// sort) and records the first such error in errp; the caller surfaces
// the error before trusting any result.
func (k orderIdx) decide(cmp int, ok bool, errp *error) (less, done bool) {
	if !ok {
		if *errp == nil {
			*errp = fmt.Errorf("query: ORDER BY %q over incomparable kinds", k.col)
		}
		return false, true
	}
	return (cmp < 0) != k.desc, cmp != 0
}

// rowLess orders two projected rows by the resolved keys, a full tie
// going to tie: false under the sort barrier (a stable sort over rows in
// ID order), the ascending tuple ID in the heaps.
func rowLess(a, b []tuple.Value, keys []orderIdx, tie bool, errp *error) bool {
	for _, k := range keys {
		cmp, ok := a[k.idx].Compare(b[k.idx])
		if less, done := k.decide(cmp, ok, errp); done {
			return less
		}
	}
	return tie
}

// topkRow is one retained row plus what the heap orders it by: the
// float image of its first ORDER BY key (when that key is a numeric
// column, see topkOrder) and the ID tie-break. vals is storage the
// collector owns: the row that evicts this one is written over it.
type topkRow struct {
	vals []tuple.Value
	key  float64
	id   tuple.ID
}

// topkOrder is the heaps' and the merge's row order: (ORDER BY keys,
// ID ascending). When the first key is a numeric column (keyed), a row's
// key field holds its image and the order compares that float, then the
// ID; it falls back to rowLess only on a NaN (which rowLess records as
// an error) or on a tie when further keys follow.
type topkOrder struct {
	keys   []orderIdx
	keyed  bool
	desc   bool // the first key's direction
	single bool // one ORDER BY key
}

// topkOrder returns the plan's top-k row order. acc is the first key's
// column when it projects a bare column.
func (p *Plan) topkOrder() (o topkOrder, acc colAcc) {
	o = topkOrder{keys: p.order, desc: p.order[0].desc, single: len(p.order) == 1}
	if c, ok := p.targets[p.order[0].idx].Expr.(Col); ok {
		acc, ok = resolveCol(c.Name, p.schema)
		o.keyed = ok && numericKind(acc.kind)
	}
	return o, acc
}

// less reports whether row a sorts strictly before row b.
func (o *topkOrder) less(a, b *topkRow, errp *error) bool {
	if o.keyed {
		switch x, y := a.key, b.key; {
		case x < y:
			return !o.desc
		case x > y:
			return o.desc
		case x == y && o.single:
			return a.id < b.id
		}
	}
	return rowLess(a.vals, b.vals, o.keys, a.id < b.id, errp)
}

// setKey stores row's first-key image when the order is keyed.
func (o *topkOrder) setKey(row *topkRow) {
	if o.keyed {
		row.key, _ = row.vals[o.keys[0].idx].Numeric()
	}
}

// TopK accumulates the best k rows of one shard straight off the
// column batches, in a bounded max-heap whose root is the worst
// survivor: a new row either replaces the root or is dropped on the
// spot. Not safe for concurrent use; run one per shard and merge with
// MergeTopK.
type TopK struct {
	plan  *Plan
	order topkOrder
	k     int
	heap  []topkRow
	err   error
	first colAcc   // the first ORDER BY key's column, when it is a bare one
	keys  []colAcc // the ORDER BY columns of a column-only plan
	one   [1]int   // the admitted row, as gatherCol's row list
	// Computed plans decode every selected row into env's tuple and
	// evaluate it into row before the heap decides; nil otherwise.
	env *TupleEnv
	row []tuple.Value
}

// NewTopK returns an empty per-shard collector. The plan must be
// ordered with a positive LIMIT (the engine routes only such plans
// here); it panics otherwise. The heap's storage grows with the rows
// actually retained, so a huge LIMIT over a small input costs what the
// input costs.
func (p *Plan) NewTopK() *TopK {
	if len(p.order) == 0 || p.limit <= 0 {
		panic("query: top-k wants an ordered plan with a positive LIMIT")
	}
	t := &TopK{plan: p, k: p.limit, heap: make([]topkRow, 0, min(p.limit, 1024))}
	t.order, t.first = p.topkOrder()
	if p.computed {
		t.env = &TupleEnv{Schema: p.schema, Tuple: new(tuple.Tuple)}
		t.row = make([]tuple.Value, len(p.targets))
		return t
	}
	for _, k := range p.order {
		acc, _ := resolveCol(p.targets[k.idx].Expr.(Col).Name, p.schema)
		t.keys = append(t.keys, acc)
	}
	return t
}

// AddBatch offers every selected row of a column batch, in ascending
// row order. Once the heap is full a losing row costs one typed
// comparison; a winner copies its output columns over the row it
// evicts, so the collector allocates per retained row, never per match,
// and keeps nothing that aliases batch memory (dictionary strings
// outlive the batch). A column-only plan whose first key is numeric
// goes through addNum. The error is a computed target failing on the
// first selected row it fails on.
func (t *TopK) AddBatch(b *tuple.Batch, sel []uint64) error {
	if t.env == nil && t.order.keyed {
		switch k := t.first; {
		case k.sys == 1:
			addNum(t, b, sel, b.Ts)
		case k.sys == 2:
			addNum(t, b, sel, b.Fs)
		case k.sys == 3:
			addNum(t, b, sel, b.IDs)
		case k.kind == tuple.KindInt:
			addNum(t, b, sel, b.Cols[k.idx].Ints)
		default:
			addNum(t, b, sel, b.Cols[k.idx].Floats)
		}
		return nil
	}
	for w, m := range sel {
		for ; m != 0; m &= m - 1 {
			j := w<<6 + bits.TrailingZeros64(m)
			full := len(t.heap) == t.k
			if t.env != nil {
				b.ReadRow(j, t.env.Tuple)
				if err := projectRow(t.plan.targets, t.env, t.row); err != nil {
					return err
				}
				if full {
					cand := topkRow{vals: t.row, id: b.IDs[j]}
					t.order.setKey(&cand)
					if !t.order.less(&cand, &t.heap[0], &t.err) {
						continue
					}
				}
			} else if full && !t.beats(b, j, &t.heap[0]) {
				continue
			}
			t.admit(b, j, full)
		}
	}
	return nil
}

// addNum is AddBatch for a column-only plan whose first ORDER BY key is
// the numeric column xs. Once the heap is full, a row whose key image is
// strictly worse than the worst survivor's is dropped and a strictly
// better one admitted on that one comparison; a tie or a NaN on either
// side goes to beats, which breaks the tie or records the error.
func addNum[T numCol](t *TopK, b *tuple.Batch, sel []uint64, xs []T) {
	desc := t.order.desc
	for w, m := range sel {
		for ; m != 0; m &= m - 1 {
			j := w<<6 + bits.TrailingZeros64(m)
			full := len(t.heap) == t.k
			if full {
				x, y := float64(xs[j]), t.heap[0].key
				if desc {
					x, y = y, x
				}
				if x > y || !(x < y) && !t.beats(b, j, &t.heap[0]) {
					continue
				}
			}
			t.admit(b, j, full)
		}
	}
}

// admit puts row j of b into the heap — over the worst survivor when the
// heap is full — with its output columns gathered off the column slices,
// or copied from t.row for a computed plan.
func (t *TopK) admit(b *tuple.Batch, j int, full bool) {
	at := 0
	if !full {
		t.heap = append(t.heap, topkRow{vals: make([]tuple.Value, len(t.plan.proj))})
		at = len(t.heap) - 1
	}
	row := &t.heap[at]
	row.id = b.IDs[j]
	if t.env != nil {
		copy(row.vals, t.row)
	} else {
		t.one[0] = j
		for c, slot := range t.plan.proj {
			gatherCol(row.vals[c:], 1, b, slot, t.one[:])
		}
	}
	t.order.setKey(row)
	if full {
		t.siftDown(0)
	} else {
		t.siftUp(at)
	}
}

// siftUp restores heap order above item i: no parent sorts before its
// children.
func (t *TopK) siftUp(i int) {
	h := t.heap
	for i > 0 {
		parent := (i - 1) / 2
		if !t.order.less(&h[parent], &h[i], &t.err) {
			return
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

// siftDown restores heap order below item i.
func (t *TopK) siftDown(i int) {
	h := t.heap
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < len(h) && t.order.less(&h[worst], &h[l], &t.err) {
			worst = l
		}
		if r < len(h) && t.order.less(&h[worst], &h[r], &t.err) {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// beats reports whether row j of b sorts strictly before worst, read
// off the column slices with the heap's semantics.
func (t *TopK) beats(b *tuple.Batch, j int, worst *topkRow) bool {
	for i, k := range t.plan.order {
		cmp, ok := compareCol(t.keys[i], b, j, worst.vals[k.idx])
		if less, done := k.decide(cmp, ok, &t.err); done {
			return less
		}
	}
	return b.IDs[j] < worst.id
}

// compareCol is Value.Compare between row j of a column and v, a value
// gathered earlier from the same column: numbers compare by their
// float64 image and NaN is incomparable.
func compareCol(c colAcc, b *tuple.Batch, j int, v tuple.Value) (int, bool) {
	if x, ok := batchNum(c, b, j); ok {
		y, _ := v.Numeric()
		if x != x || y != y {
			return 0, false
		}
		return cmpFloat(x, y), true
	}
	cv := &b.Cols[c.idx]
	if c.kind == tuple.KindString {
		return cmpString(cv.Dict[cv.Codes[j]], v.AsString()), true
	}
	return cmpBool(cv.Bools[j], v.AsBool()), true
}

// Len returns the rows currently retained (≤ k).
func (t *TopK) Len() int { return len(t.heap) }

// Ranked reports whether the collector can rank a shard's segments:
// its first ORDER BY key is a bare numeric column the zone maps bound
// (_t, _id, or an INT or FLOAT attribute; _f has none), and no target
// is computed — a computed target can fail on any matching row, so
// every one must be met, as the sort barrier meets it. desc is the
// key's direction, which a ranked walk also takes through the batches
// of each segment.
func (t *TopK) Ranked() (desc, ok bool) {
	return t.order.desc, t.order.keyed && t.first.sys != 2 && t.env == nil
}

// Score rates a segment for a ranked walk (see Ranked): the best first
// key any of its rows can hold, as a score that grows with the rows'
// merit — the upper bound for DESC, the negated lower bound for ASC. ok
// is false when the zone map has no bounds for the key.
func (t *TopK) Score(z ZoneView) (score float64, ok bool) {
	lo, hi, ok := t.first.bounds(z)
	if t.order.desc {
		return hi, ok
	}
	return -lo, ok
}

// Beaten reports whether no row of a segment can enter the heap: the
// heap is full and the segment's Score cannot strictly beat the worst
// survivor's first key. Every row it holds then loses on the first key
// before tie-breaks matter; a tie keeps the segment (a tying row can
// still win on later keys or the ID). It reads live heap state and must
// only run on the goroutine feeding this collector.
func (t *TopK) Beaten(z ZoneView) bool {
	if len(t.heap) < t.k {
		return false
	}
	score, ok := t.Score(z)
	worst := t.heap[0].key
	if !t.order.desc {
		worst = -worst
	}
	return ok && score < worst
}

// Err returns the first ordering error observed.
func (t *TopK) Err() error { return t.err }

// MergeTopK merges per-shard collectors into the final ordered rows,
// at most LIMIT of them. Nil collectors are skipped.
func (p *Plan) MergeTopK(parts []*TopK) ([][]tuple.Value, error) {
	var all []topkRow
	var err error
	for _, t := range parts {
		if t == nil {
			continue
		}
		if t.err != nil && err == nil {
			err = t.err
		}
		all = append(all, t.heap...)
	}
	if err != nil {
		return nil, err
	}
	order, _ := p.topkOrder()
	sort.Slice(all, func(i, j int) bool { return order.less(&all[i], &all[j], &err) })
	if err != nil {
		return nil, err
	}
	if len(all) > p.limit {
		all = all[:p.limit]
	}
	rows := make([][]tuple.Value, len(all))
	for i := range all {
		rows[i] = all[i].vals
	}
	return rows, nil
}
