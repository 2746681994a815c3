package query

import (
	"math/bits"

	"fungusdb/internal/tuple"
)

// Rows is the pull-based result of executing a prepared plan. The
// iteration contract follows database/sql:
//
//	rows, err := pq.Execute(params...)
//	defer rows.Close()
//	for rows.Next() {
//	    use rows.Values()
//	}
//	if err := rows.Err(); err != nil { ... }
//
// For streaming plans the rows arrive from per-shard scan goroutines as
// they are produced (k-way merged back into global insertion order), so
// a large answer never materialises in one place; Close releases the
// producers early when the caller stops before exhaustion. Plans with a
// barrier (ORDER BY, aggregation, consume, ask) are memory-backed and
// Close is a no-op. A Rows is not safe for concurrent use.
type Rows struct {
	cols []string
	mode Mode
	src  rowSource
	// A stream's current row is row k of blk; a memory-backed answer's
	// is vals, and blk is nil. Values boxes a stream's row into row, and
	// points vals at it, only when asked.
	blk    *Block
	k      int
	vals   []tuple.Value
	row    []tuple.Value
	one    Block // Cursor's view of a memory-backed row
	err    error
	done   bool
	closed bool
}

// rowSource feeds a Rows. next sets the current row (r.blk and r.k, or
// r.vals) and returns true, or returns false at end of stream (setting
// r.err on failure).
type rowSource interface {
	next(r *Rows) bool
	close() error
	scanned() int
}

// Cols returns the output column names.
func (r *Rows) Cols() []string { return r.cols }

// Mode returns the executed plan's read semantics.
func (r *Rows) Mode() Mode { return r.mode }

// Next advances to the next row, reporting whether one is available.
// Once it returns false, check Err.
func (r *Rows) Next() bool {
	if r.done || r.closed {
		return false
	}
	r.blk, r.vals = nil, nil
	if !r.src.next(r) {
		r.done = true
		return false
	}
	return true
}

// Values returns the current row. It is valid until the next Next
// call: a stream boxes every row into one reused slice, so a caller
// that keeps a row must copy it (see Collect). Close does not end it:
// after Close, Values returns the row the last Next produced, unchanged.
func (r *Rows) Values() []tuple.Value {
	if r.vals == nil && r.blk != nil {
		r.row = r.blk.AppendRow(r.row[:0], r.k)
		r.vals = r.row[:len(r.row):len(r.row)]
	}
	return r.vals
}

// Cursor returns the current row as row k of a block, for a reader
// that takes each column's values typed, without boxing them (the
// server's row encoder). A memory-backed answer's row comes as a
// one-row block of boxed columns. Both are valid until the next Next;
// the block must not be modified or released. Cursor returns nil when
// there is no current row.
func (r *Rows) Cursor() (b *Block, k int) {
	if r.blk != nil || r.vals == nil {
		return r.blk, r.k
	}
	o := &r.one
	if cap(o.Cols) < len(r.vals) {
		o.Cols = make([]BlockCol, len(r.vals))
	}
	o.Cols = o.Cols[:len(r.vals)]
	for c := range r.vals {
		o.Cols[c] = BlockCol{Vals: r.vals[c : c+1]}
	}
	return o, 0
}

// Collect drains the remaining rows into rows the caller owns, closes r
// and returns Err. A memory-backed answer's rows are handed over as they
// are. A stream's rows are boxed into chunks of values: the first as
// large as the first block the merge hands over, each next one twice
// the one before, none ever copied. Once the drain ends the row index is
// made once and every row cut from its chunk, so collecting costs no
// allocation per row and at most about twice the answer's values in
// memory.
func (r *Rows) Collect() ([][]tuple.Value, error) {
	if vs, ok := r.src.(*valueSource); ok && !r.closed {
		rows := vs.rows[vs.i:]
		vs.i = len(vs.rows)
		return rows, r.Close()
	}
	width := len(r.cols)
	var chunks [][]tuple.Value
	var chunk []tuple.Value
	n := 0
	for ; r.Next(); n++ {
		if len(chunk)+width > cap(chunk) {
			if cap(chunk) > 0 {
				chunks = append(chunks, chunk)
			}
			chunk = make([]tuple.Value, 0, max(2*cap(chunk), len(r.blk.IDs)*width))
		}
		chunk = r.blk.AppendRow(chunk, r.k)
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	out := make([][]tuple.Value, n)
	i := 0
	for _, ch := range append(chunks, chunk) {
		for at := 0; at < len(ch); at += width {
			out[i] = ch[at : at+width : at+width]
			i++
		}
	}
	return out, nil
}

// Tuple always returns nil: every plan has a projection stage, so rows
// carry values only — select `_id, _t, _f, *` for a whole tuple's
// fields. It is kept, with its signature, because the repository
// benchmark (bench/fungusload) still names it and may not change.
func (r *Rows) Tuple() *tuple.Tuple { return nil }

// Err returns the first error hit while producing rows. For streaming
// plans an error in one shard surfaces after the remaining shards'
// rows drain, so callers must always check Err after Next returns
// false before trusting the row set.
func (r *Rows) Err() error { return r.err }

// Scanned returns the number of live tuples examined. It is complete
// only after Next has returned false (or Close ran).
func (r *Rows) Scanned() int { return r.src.scanned() }

// Close releases the result early: streaming producers are signalled,
// drained and joined. It is idempotent and returns Err.
func (r *Rows) Close() error {
	if !r.closed {
		r.closed = true
		if cerr := r.src.close(); r.err == nil {
			r.err = cerr
		}
	}
	return r.err
}

// --- memory-backed sources -------------------------------------------

// valueSource serves pre-computed value rows (grids, ask answers).
type valueSource struct {
	rows     [][]tuple.Value
	i        int
	scannedN int
}

func (s *valueSource) next(r *Rows) bool {
	if s.i >= len(s.rows) {
		return false
	}
	r.vals = s.rows[s.i]
	s.i++
	return true
}

func (s *valueSource) close() error { return nil }
func (s *valueSource) scanned() int { return s.scannedN }

// NewValueRows wraps materialised value rows (a collected or aggregated
// answer, an ask answer) as a Rows.
func NewValueRows(cols []string, mode Mode, rows [][]tuple.Value, scanned int) *Rows {
	return &Rows{cols: cols, mode: mode, src: &valueSource{rows: rows, scannedN: scanned}}
}

// --- shard-streaming source ------------------------------------------

// Stream wires a shard-parallel scan into a Rows. The engine owns the
// producer goroutines; this type owns the pull side.
type Stream struct {
	// Cols are the output column names.
	Cols []string
	// Mode is the plan's read semantics.
	Mode Mode
	// Blocks carries each shard's matching rows as ID-ascending,
	// already projected blocks; every channel is closed when its
	// shard's scan ends.
	Blocks []<-chan *Block
	// Done is closed exactly once by the Rows to abort the producers
	// (early Close, limit reached, projection error).
	Done chan struct{}
	// Wait blocks until every producer exited and returns the total
	// live tuples scanned plus the first scan error.
	Wait func() (scanned int, err error)
	// Limit caps the emitted rows (0 = unlimited).
	Limit int
}

// NewStreamRows builds the pull-based k-way merge over per-shard block
// channels: each shard's blocks are ID-ascending, so emitting the
// smallest head ID reproduces global insertion order. The engine's
// collect route merges its blocks here too, once its walk is over.
func NewStreamRows(s Stream) *Rows {
	return &Rows{cols: s.Cols, mode: s.Mode, src: &streamSource{
		blocks: s.Blocks,
		done:   s.Done,
		wait:   s.Wait,
		limit:  s.Limit,
	}}
}

type streamSource struct {
	blocks []<-chan *Block
	heads  []*Block // current block per shard; nil once its channel closed
	idx    []int    // cursor into heads[i]
	// nextID[i] is the ID of heads[i]'s next row, the largest ID once the
	// shard is finished, so picking the smallest head needs no branch
	// per shard.
	nextID []tuple.ID
	// cur is the block the current row lies in. spent means the merge
	// has moved past cur's last row, so cur is no longer a head and is
	// released as soon as the caller moves on.
	cur     *Block
	spent   bool
	done    chan struct{}
	wait    func() (int, error)
	limit   int
	emitted int
	started bool
	stopped bool
	total   int
	waitErr error
}

func (s *streamSource) next(r *Rows) bool {
	if s.stopped {
		return false
	}
	// The caller has moved past the current row; if that was its
	// block's last row, the merge is done with the block too.
	if s.spent {
		s.cur.Release()
		s.spent = false
	}
	s.cur = nil
	if !s.started {
		s.started = true
		s.heads = make([]*Block, len(s.blocks))
		s.idx = make([]int, len(s.blocks))
		s.nextID = make([]tuple.ID, len(s.blocks))
		for i := range s.blocks {
			s.refill(i)
		}
	}
	if s.limit > 0 && s.emitted >= s.limit {
		if err := s.shutdown(); err != nil && r.err == nil {
			r.err = err
		}
		return false
	}
	best := smallest(s.nextID)
	h := s.heads[best]
	if h == nil {
		if err := s.shutdown(); err != nil && r.err == nil {
			r.err = err
		}
		return false
	}
	k := s.idx[best]
	s.idx[best]++
	last := k+1 == len(h.IDs)
	switch {
	case last && h.Err != nil:
		r.err = h.Err
		_ = s.shutdown()
		return false
	case !last:
		s.nextID[best] = h.IDs[k+1]
	case s.limit == 0 || s.emitted+1 < s.limit:
		s.refill(best)
	default:
		// This emission reaches the limit: the merge will never need
		// another block, so don't block on a producer that may be
		// mid-way through a long matchless stretch — the next call
		// shuts the stream down and cancels them.
		s.heads[best], s.nextID[best] = nil, ^tuple.ID(0)
	}
	r.blk, r.k = h, k
	s.cur, s.spent = h, last
	s.emitted++
	return true
}

// smallest returns the index of the first smallest ID. It selects by
// mask, not by branch: the borrow of id - low is 1 exactly when id is
// smaller, so the merge pays no mispredicted branch when the shards'
// heads take turns.
func smallest(ids []tuple.ID) int {
	best, low := 0, uint64(ids[0])
	for i, id := range ids {
		_, lt := bits.Sub64(uint64(id), low, 0)
		best ^= (best ^ i) & -int(lt)
		low ^= (low ^ uint64(id)) & -lt
	}
	return best
}

// refill receives shard i's next block, marking the shard finished
// when its channel closes.
func (s *streamSource) refill(i int) {
	b, ok := <-s.blocks[i]
	if !ok {
		s.heads[i], s.nextID[i] = nil, ^tuple.ID(0)
		return
	}
	s.heads[i], s.idx[i], s.nextID[i] = b, 0, b.IDs[0]
}

// shutdown aborts and joins the producers: signal done, drain every
// channel so no producer stays blocked on a send, then collect the
// scan error and totals. Every block the merge holds or drains is
// released, except cur: the caller may still read the current row.
// Idempotent; returns the first scan error.
func (s *streamSource) shutdown() error {
	if s.stopped {
		return s.waitErr
	}
	s.stopped = true
	close(s.done)
	for _, ch := range s.blocks {
		for b := range ch { // drain until closed so producers unblock
			b.Release()
		}
	}
	for _, h := range s.heads {
		if h != s.cur {
			h.Release()
		}
	}
	s.heads = nil
	s.total, s.waitErr = s.wait()
	return s.waitErr
}

func (s *streamSource) close() error { return s.shutdown() }

func (s *streamSource) scanned() int { return s.total }
