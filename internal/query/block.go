package query

import (
	"sync"

	"fungusdb/internal/tuple"
)

// BlockRows is the row capacity of one streaming hand-off block.
// Combined with the 1-block channel buffer it bounds a stream's
// in-flight memory at roughly 2*shards*BlockRows rows.
const BlockRows = 256

// Block is one hand-off from a shard producer to the streaming merge:
// the plan's output columns of up to BlockRows matching rows, copied
// out of the extent into one flat row-major slice.
//
// Blocks are recycled through one process-wide pool. The merge releases
// a block once no row of it can still be referenced: after the caller
// has moved past its last row, since Rows.Values is valid only until
// the next Next. A producer's BlockWriter takes a pooled block before
// it allocates one. A caller that keeps a row beyond the next Next must
// copy it.
type Block struct {
	// IDs are the rows' tuple IDs, ascending.
	IDs []tuple.ID
	// Vals holds the rows' output values: row k is
	// Vals[k*Width:(k+1)*Width].
	Vals  []tuple.Value
	Width int
	// Err, when set, poisons the block's last row: its ID is present
	// but projecting it failed, so it has no values. The merge reports
	// Err when (and only if) it reaches that row — exactly where a
	// consumer-side projection would have failed.
	Err error
}

// blockPool holds released hand-off blocks, each with its own capacity.
var blockPool sync.Pool

// newBlock returns an empty block with room for rows rows of the given
// width: a pooled one when it is big enough, else a fresh one. A pooled
// block that is too small is dropped.
func newBlock(rows, width int) *Block {
	if b, _ := blockPool.Get().(*Block); b != nil && cap(b.IDs) >= rows && cap(b.Vals) >= rows*width {
		b.Width = width
		return b
	}
	return &Block{
		IDs:   make([]tuple.ID, 0, rows),
		Vals:  make([]tuple.Value, 0, rows*width),
		Width: width,
	}
}

// Release returns b to the pool. Call it only once nothing will read b
// again: neither its holder nor a caller that was handed one of its
// rows. The value slots its rows used are cleared first, so a pooled
// block pins no strings of evicted segments. Release of nil does
// nothing.
func (b *Block) Release() {
	if b == nil {
		return
	}
	// A poisoned last row may have filled some slots past len(Vals).
	clear(b.Vals[:len(b.IDs)*b.Width])
	b.IDs, b.Vals, b.Err = b.IDs[:0], b.Vals[:0], nil
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
// straight out of column views. computed reports whether any target
// still needs its expression evaluated per row.
func lowerTargets(targets []SelectTarget, schema *tuple.Schema) (proj []int, computed bool) {
	proj = make([]int, len(targets))
	for i, t := range targets {
		proj[i] = projExpr
		if c, ok := t.Expr.(Col); ok && t.Agg == AggNone {
			switch c.Name {
			case tuple.SysTick:
				proj[i] = projTick
			case tuple.SysFresh:
				proj[i] = projFresh
			case tuple.SysID:
				proj[i] = projID
			default:
				proj[i] = schema.Index(c.Name)
			}
		}
		if proj[i] == projExpr {
			computed = true
		}
	}
	return proj, computed
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
		w.env = &TupleEnv{Schema: p.schema, Params: params}
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

// grow makes room for n more rows and returns the block plus the index
// of the first new row. The value slots are zeroed, not yet filled.
func (w *BlockWriter) grow(n int) (*Block, int) {
	b := w.blk
	if b == nil {
		b = newBlock(w.cap, len(w.plan.proj))
		w.blk = b
	}
	at := len(b.IDs)
	b.IDs = b.IDs[:at+n]
	b.Vals = b.Vals[:(at+n)*b.Width]
	return b, at
}

// AddBatch appends rows (ascending row indexes into the column batch)
// until the block is full, and returns how many it took. Column-only
// plans copy column by column, one kind switch per column; plans with
// computed targets decode each row into a scratch tuple and evaluate.
func (w *BlockWriter) AddBatch(src *tuple.Batch, rows []int) int {
	if room := w.cap - w.Len(); len(rows) > room {
		rows = rows[:room]
	}
	if w.plan.computed {
		for n, j := range rows {
			src.ReadRow(j, &w.scratch)
			if !w.addTuple(&w.scratch) {
				return n + 1
			}
		}
		return len(rows)
	}
	b, at := w.grow(len(rows))
	for k, j := range rows {
		b.IDs[at+k] = src.IDs[j]
	}
	for c, slot := range w.plan.proj {
		gatherCol(b.Vals[at*b.Width+c:], b.Width, src, slot, rows)
	}
	return len(rows)
}

// gatherCol boxes the given rows of one lowered column slot (a user
// attribute or a system column) into every stride-th slot of dst.
func gatherCol(dst []tuple.Value, stride int, src *tuple.Batch, slot int, rows []int) {
	switch slot {
	case projTick:
		for k, j := range rows {
			dst[k*stride] = tuple.Int(src.Ts[j])
		}
		return
	case projFresh:
		for k, j := range rows {
			dst[k*stride] = tuple.Float(src.Fs[j])
		}
		return
	case projID:
		for k, j := range rows {
			dst[k*stride] = tuple.Int(int64(src.IDs[j]))
		}
		return
	}
	col := &src.Cols[slot]
	switch col.Kind {
	case tuple.KindInt:
		for k, j := range rows {
			dst[k*stride] = tuple.Int(col.Ints[j])
		}
	case tuple.KindFloat:
		for k, j := range rows {
			dst[k*stride] = tuple.Float(col.Floats[j])
		}
	case tuple.KindString:
		for k, j := range rows {
			dst[k*stride] = tuple.String_(col.Dict[col.Codes[j]])
		}
	case tuple.KindBool:
		for k, j := range rows {
			dst[k*stride] = tuple.Bool(col.Bools[j])
		}
	}
}

// addTuple appends one decoded row, AddBatch's route for computed
// targets. The block must not be full. It reports false when
// projecting the tuple failed: the block is now poisoned (see
// Block.Err) and takes no more rows.
func (w *BlockWriter) addTuple(tp *tuple.Tuple) bool {
	b, at := w.grow(1)
	b.IDs[at] = tp.ID
	row := b.Vals[at*b.Width : (at+1)*b.Width]
	if w.env != nil {
		w.env.Tuple = tp
	}
	for c, slot := range w.plan.proj {
		switch slot {
		case projTick:
			row[c] = tuple.Int(int64(tp.T))
		case projFresh:
			row[c] = tuple.Float(float64(tp.F))
		case projID:
			row[c] = tuple.Int(int64(tp.ID))
		case projExpr:
			v, err := w.plan.targets[c].Expr.Eval(w.env)
			if err != nil {
				b.Vals = b.Vals[:at*b.Width]
				b.Err = err
				return false
			}
			row[c] = v
		default:
			row[c] = tp.Attrs[slot]
		}
	}
	return true
}
