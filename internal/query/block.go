package query

import (
	"sync"

	"fungusdb/internal/tuple"
)

// BlockRows is the row capacity of one streaming hand-off block.
// Combined with the 1-block channel buffer it bounds a stream's
// in-flight memory at roughly 2*shards*BlockRows rows.
const BlockRows = 256

// BlockCol is one output column of a Block, in the tuple.ColView shapes
// with STRING values as string headers: Kind names the one payload
// slice in use, whose first len(Block.IDs) entries are the block's
// rows. A column of KindInvalid is boxed: Vals holds its values, each
// of its own kind, as a computed target's may change from row to row.
// A STRING header points into a segment dictionary, never at a shard
// code, so a block stays readable after its shard's lock is released.
type BlockCol struct {
	Kind   tuple.Kind
	Ints   []int64
	Floats []float64
	Strs   []string
	Bools  []bool
	Vals   []tuple.Value
}

// Value boxes row k of the column.
func (c *BlockCol) Value(k int) tuple.Value {
	switch c.Kind {
	case tuple.KindInt:
		return tuple.Int(c.Ints[k])
	case tuple.KindFloat:
		return tuple.Float(c.Floats[k])
	case tuple.KindString:
		return tuple.String_(c.Strs[k])
	case tuple.KindBool:
		return tuple.Bool(c.Bools[k])
	}
	return c.Vals[k]
}

// Block is one hand-off from a shard producer to the streaming merge:
// the plan's output columns of up to BlockRows matching rows, copied
// out of the extent one typed column per target.
//
// Blocks are recycled through one process-wide pool. The merge releases
// a block once no row of it can still be referenced: after the caller
// has moved past its last row, since Rows.Values and Rows.Cursor are
// valid only until the next Next. A producer's BlockWriter takes a
// pooled block before it allocates one. A caller that keeps a row
// beyond the next Next must copy it.
type Block struct {
	// IDs are the rows' tuple IDs, ascending.
	IDs []tuple.ID
	// Cols holds one column per output target.
	Cols []BlockCol
	// Err, when set, poisons the block's last row: its ID is present
	// but projecting it failed, so it has no values. The merge reports
	// Err when (and only if) it reaches that row — exactly where a
	// consumer-side projection would have failed.
	Err error

	// The payload slabs, one per kind; each column is carved out of
	// the slab of its kind and keeps its slab's memory when the block
	// is pooled and carved again for another plan.
	ints   []int64
	floats []float64
	strs   []string
	bools  []bool
	vals   []tuple.Value
}

// blockMem is a pooled block with the arrays its IDs and, for up to
// eight targets, its columns live in, so a fresh block costs one
// allocation plus one per column kind. The IDs come last: they hold no
// pointers, so the collector's scan of a block ends before them.
type blockMem struct {
	Block
	cols [8]BlockCol
	ids  [BlockRows]tuple.ID
}

// AppendRow appends row k's values, boxed, to dst.
func (b *Block) AppendRow(dst []tuple.Value, k int) []tuple.Value {
	for c := range b.Cols {
		dst = append(dst, b.Cols[c].Value(k))
	}
	return dst
}

// blockPool holds released hand-off blocks, each with its own capacity.
var blockPool sync.Pool

// newBlock returns an empty block with room for rows rows of columns of
// the given kinds (KindInvalid: boxed): a pooled one when there is one,
// its slabs reused where they are big enough, else a fresh one.
func newBlock(rows int, kinds []tuple.Kind) *Block {
	b, _ := blockPool.Get().(*Block)
	if b == nil {
		m := new(blockMem)
		b = &m.Block
		b.IDs, b.Cols = m.ids[:0], m.cols[:0]
	}
	if cap(b.IDs) < rows {
		b.IDs = make([]tuple.ID, 0, rows)
	}
	if cap(b.Cols) < len(kinds) {
		b.Cols = make([]BlockCol, len(kinds))
	}
	b.Cols = b.Cols[:len(kinds)]
	var n [tuple.KindBool + 1]int
	for _, k := range kinds {
		n[k] += rows
	}
	b.ints = carve(b.ints, n[tuple.KindInt])
	b.floats = carve(b.floats, n[tuple.KindFloat])
	b.strs = carve(b.strs, n[tuple.KindString])
	b.bools = carve(b.bools, n[tuple.KindBool])
	b.vals = carve(b.vals, n[tuple.KindInvalid])
	clear(n[:])
	for c, k := range kinds {
		at := n[k]
		n[k] += rows
		col := BlockCol{Kind: k}
		switch k {
		case tuple.KindInt:
			col.Ints = b.ints[at:n[k]:n[k]]
		case tuple.KindFloat:
			col.Floats = b.floats[at:n[k]:n[k]]
		case tuple.KindString:
			col.Strs = b.strs[at:n[k]:n[k]]
		case tuple.KindBool:
			col.Bools = b.bools[at:n[k]:n[k]]
		default:
			col.Vals = b.vals[at:n[k]:n[k]]
		}
		b.Cols[c] = col
	}
	return b
}

// carve returns s resliced to n entries, or a fresh slice when s is too
// small. A reused numeric slab may still hold an earlier block's values:
// every row is written before it is read. The string and value slabs
// come back empty, as Release clears them.
func carve[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Release returns b to the pool. Call it only once nothing will read b
// again: neither its holder nor a caller that was handed one of its
// rows. The string and value slabs are cleared first, so a pooled
// block pins no strings of evicted segments. Release of nil does
// nothing.
func (b *Block) Release() {
	if b == nil {
		return
	}
	// A poisoned block may hold values past its last row.
	clear(b.strs)
	clear(b.vals)
	b.IDs, b.Err = b.IDs[:0], nil
	blockPool.Put(b)
}

// Projection slots for a target that is not a user attribute.
const (
	projTick  = -1 - iota // _t
	projFresh             // _f
	projID                // _id
	projExpr              // computed: evaluate the target expression
)

// lowerTargets resolves bare-column and system-column targets to
// column slots at plan time, so the streaming producers copy values
// straight out of column views, and gives each target's output kind
// (KindInvalid for a computed one, which is boxed). computed reports
// whether any target still needs its expression evaluated per row.
func lowerTargets(targets []SelectTarget, schema *tuple.Schema) (proj []int, kinds []tuple.Kind, computed bool) {
	proj = make([]int, len(targets))
	kinds = make([]tuple.Kind, len(targets))
	for i, t := range targets {
		proj[i] = projExpr
		if c, ok := t.Expr.(Col); ok && t.Agg == AggNone {
			if acc, ok := resolveCol(c.Name, schema); ok {
				proj[i], kinds[i] = acc.idx, acc.kind
				switch acc.sys {
				case 1:
					proj[i] = projTick
				case 2:
					proj[i] = projFresh
				case 3:
					proj[i] = projID
				}
			}
		}
		if proj[i] == projExpr {
			computed = true
		}
	}
	return proj, kinds, computed
}

// BlockWriter fills hand-off blocks for one shard producer of a
// streaming plan. Not safe for concurrent use: every producer owns one.
type BlockWriter struct {
	plan *Plan
	cap  int // rows per block
	blk  *Block
	// env evaluates computed targets; one per writer, retargeted per
	// row, so no Env is boxed per row. Nil for column-only plans.
	env     *TupleEnv
	scratch tuple.Tuple
}

// NewBlockWriter returns a writer for the plan's streaming output.
// limit, when positive, is the most rows this producer will ever
// contribute; blocks are sized down to it.
func (p *Plan) NewBlockWriter(params []tuple.Value, limit int) *BlockWriter {
	w := &BlockWriter{plan: p, cap: BlockRows}
	if limit > 0 && limit < w.cap {
		w.cap = limit
	}
	if p.computed {
		w.env = &TupleEnv{Schema: p.schema, Params: params, Tuple: &w.scratch}
	}
	return w
}

// Len returns the rows in the block being filled.
func (w *BlockWriter) Len() int {
	if w.blk == nil {
		return 0
	}
	return len(w.blk.IDs)
}

// Full reports whether the block being filled must be handed off
// before more rows are added.
func (w *BlockWriter) Full() bool { return w.Len() == w.cap }

// Failed reports whether the last added row poisoned the block (see
// Block.Err); the producer hands the block off and stops.
func (w *BlockWriter) Failed() bool { return w.blk != nil && w.blk.Err != nil }

// Take returns the block being filled (nil when it has no rows) and
// starts a fresh one on the next add.
func (w *BlockWriter) Take() *Block {
	b := w.blk
	w.blk = nil
	return b
}

// AddBatch appends rows (ascending row indexes into the column batch)
// until the block is full, and returns how many it took. Bare-column
// targets are copied column by column, typed, one kind switch per
// column; computed targets decode each row into a scratch tuple and
// evaluate. A row whose evaluation fails is the last one taken: it
// poisons the block (see Block.Err).
func (w *BlockWriter) AddBatch(src *tuple.Batch, rows []int) int {
	if room := w.cap - w.Len(); len(rows) > room {
		rows = rows[:room]
	}
	b := w.blk
	if b == nil {
		b = newBlock(w.cap, w.plan.kinds)
		w.blk = b
	}
	at := len(b.IDs)
	b.IDs = b.IDs[:at+len(rows)]
	for k, j := range rows {
		b.IDs[at+k] = src.IDs[j]
	}
	for c, slot := range w.plan.proj {
		if slot != projExpr {
			gatherCol(&b.Cols[c], at, src, slot, rows)
		}
	}
	if w.env == nil {
		return len(rows)
	}
	for n, j := range rows {
		src.ReadRow(j, &w.scratch)
		for c, slot := range w.plan.proj {
			if slot != projExpr {
				continue
			}
			v, err := w.plan.targets[c].Expr.Eval(w.env)
			if err != nil {
				b.IDs = b.IDs[:at+n+1]
				b.Err = err
				return n + 1
			}
			b.Cols[c].Vals[at+n] = v
		}
	}
	return len(rows)
}

// gatherCol copies the given rows of one lowered column slot (a user
// attribute or a system column) into dst from row at on.
func gatherCol(dst *BlockCol, at int, src *tuple.Batch, slot int, rows []int) {
	switch slot {
	case projTick:
		gather(dst.Ints[at:], src.Ts, rows)
		return
	case projFresh:
		gather(dst.Floats[at:], src.Fs, rows)
		return
	case projID:
		ints := dst.Ints[at:]
		for k, j := range rows {
			ints[k] = int64(src.IDs[j])
		}
		return
	}
	col := &src.Cols[slot]
	switch col.Kind {
	case tuple.KindInt:
		gather(dst.Ints[at:], col.Ints, rows)
	case tuple.KindFloat:
		gather(dst.Floats[at:], col.Floats, rows)
	case tuple.KindString:
		strs, codes := dst.Strs[at:], col.Codes
		for k, j := range rows {
			strs[k] = col.Dict[codes[j]]
		}
	case tuple.KindBool:
		gather(dst.Bools[at:], col.Bools, rows)
	}
}

// gather copies src[rows[k]] to dst[k].
func gather[T any](dst, src []T, rows []int) {
	dst = dst[:len(rows)]
	for k, j := range rows {
		dst[k] = src[j]
	}
}

// slotValue boxes row j of one lowered column slot.
func slotValue(src *tuple.Batch, slot, j int) tuple.Value {
	switch slot {
	case projTick:
		return tuple.Int(src.Ts[j])
	case projFresh:
		return tuple.Float(src.Fs[j])
	case projID:
		return tuple.Int(int64(src.IDs[j]))
	}
	return src.Cols[slot].Value(j)
}
