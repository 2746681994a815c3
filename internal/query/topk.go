package query

import (
	"fmt"
	"math/bits"
	"sort"

	"fungusdb/internal/sketch"
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

// topkRow is one retained row plus the ID tie-break. vals is storage the
// collector owns: the row that evicts this one is written over it.
type topkRow struct {
	vals []tuple.Value
	id   tuple.ID
}

// TopK accumulates the best k rows of one shard straight off the
// column batches. Not safe for concurrent use; run one per shard and
// merge with MergeTopK.
type TopK struct {
	plan *Plan
	h    *sketch.BoundedHeap[topkRow]
	err  error
	keys []colAcc // the ORDER BY columns of a column-only plan
	one  [1]int   // the admitted row, as gatherCol's row list
	// Computed plans decode every selected row into env's tuple and
	// evaluate it into row before the heap decides; nil otherwise.
	env *TupleEnv
	row []tuple.Value
}

// NewTopK returns an empty per-shard collector. The plan must be
// ordered with a positive LIMIT (the engine routes only such plans
// here).
func (p *Plan) NewTopK() *TopK {
	t := &TopK{plan: p}
	t.h = sketch.NewBoundedHeap(p.limit, func(a, b topkRow) bool {
		return p.orderLess(a, b, &t.err)
	})
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

// orderLess orders candidate rows by the resolved ORDER BY keys, ties
// broken by ascending tuple ID.
func (p *Plan) orderLess(a, b topkRow, errp *error) bool {
	return rowLess(a.vals, b.vals, p.order, a.id < b.id, errp)
}

// AddBatch offers every selected row of a column batch, in ascending
// row order. Once the heap is full a losing row costs one typed
// comparison; a winner copies its output columns over the row it
// evicts, so the collector allocates per retained row, never per match,
// and keeps nothing that aliases batch memory (dictionary strings
// outlive the batch). The error is a computed target failing on the
// first selected row it fails on.
func (t *TopK) AddBatch(b *tuple.Batch, sel []uint64) error {
	p := t.plan
	for w, m := range sel {
		for ; m != 0; m &= m - 1 {
			j := w<<6 + bits.TrailingZeros64(m)
			var row topkRow
			full := t.h.Len() == t.h.Cap()
			if full {
				row = t.h.Items()[0]
			}
			if t.env != nil {
				b.ReadRow(j, t.env.Tuple)
				if err := projectRow(p.targets, t.env, t.row); err != nil {
					return err
				}
				if full && !p.orderLess(topkRow{vals: t.row, id: b.IDs[j]}, row, &t.err) {
					continue
				}
			} else if full && !t.beats(b, j, row) {
				continue
			}
			if !full {
				row.vals = make([]tuple.Value, len(p.proj))
			}
			row.id = b.IDs[j]
			if t.env != nil {
				copy(row.vals, t.row)
			} else {
				t.one[0] = j
				for c, slot := range p.proj {
					gatherCol(row.vals[c:], 1, b, slot, t.one[:])
				}
			}
			if full {
				t.h.ReplaceTop(row)
			} else {
				t.h.Push(row)
			}
		}
	}
	return nil
}

// beats reports whether row j of b sorts strictly before worst, read
// off the column slices with orderLess's semantics.
func (t *TopK) beats(b *tuple.Batch, j int, worst topkRow) bool {
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
func (t *TopK) Len() int { return t.h.Len() }

// AxisSkip returns a zone check for axis-ordered top-k scans (see
// Plan.OrderAxis): once the heap holds k rows, a segment whose best
// possible primary-key value cannot strictly beat the current worst
// survivor provably contributes nothing — every row it holds loses on
// the first key before tie-breaks matter. Ties keep scanning (a tying
// row can still win on later keys or the ID tie-break). The closure
// reads live heap state and must only run on the goroutine feeding
// this collector.
func (t *TopK) AxisSkip(axis uint8, desc bool) func(ZoneView) bool {
	keyIdx := t.plan.order[0].idx
	return func(z ZoneView) bool {
		if t.h.Len() < t.h.Cap() {
			return false
		}
		worst, wok := t.h.Items()[0].vals[keyIdx].Numeric()
		if !wok {
			return false
		}
		var lo, hi tuple.Value
		var ok bool
		switch axis {
		case 1:
			lo, hi, ok = z.TickBounds()
		case 2:
			lo, hi, ok = z.IDBounds()
		default:
			return false
		}
		if !ok {
			return false
		}
		if desc {
			h, _ := hi.Numeric()
			return h < worst
		}
		l, _ := lo.Numeric()
		return l > worst
	}
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
		all = append(all, t.h.Items()...)
	}
	if err != nil {
		return nil, err
	}
	sort.Slice(all, func(i, j int) bool { return p.orderLess(all[i], all[j], &err) })
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
