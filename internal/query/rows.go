package query

import (
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
	cols   []string
	mode   Mode
	src    rowSource
	vals   []tuple.Value
	err    error
	done   bool
	closed bool
}

// rowSource feeds a Rows. next sets r.vals and returns true, or
// returns false at end of stream (setting r.err on failure).
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
	if !r.src.next(r) {
		r.done = true
		r.vals = nil
		return false
	}
	return true
}

// Values returns the current row. It is valid until the next Next call.
func (r *Rows) Values() []tuple.Value { return r.vals }

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

// NewValueRows wraps materialised value rows (an executed grid, an ask
// answer) as a Rows.
func NewValueRows(cols []string, mode Mode, rows [][]tuple.Value, scanned int) *Rows {
	return &Rows{cols: cols, mode: mode, src: &valueSource{rows: rows, scannedN: scanned}}
}

// NewGridRows wraps a materialised Grid as a Rows.
func NewGridRows(g *Grid, mode Mode, scanned int) *Rows {
	return &Rows{cols: g.Cols, mode: mode, src: &valueSource{rows: g.Rows, scannedN: scanned}}
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
// smallest head ID reproduces global insertion order — the same order
// the materialised path's mergeByID produces.
func NewStreamRows(s Stream) *Rows {
	return &Rows{cols: s.Cols, mode: s.Mode, src: &streamSource{
		blocks: s.Blocks,
		done:   s.Done,
		wait:   s.Wait,
		limit:  s.Limit,
	}}
}

type streamSource struct {
	blocks  []<-chan *Block
	heads   []*Block // current block per shard; nil once its channel closed
	idx     []int    // cursor into heads[i]
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
	if !s.started {
		s.started = true
		s.heads = make([]*Block, len(s.blocks))
		s.idx = make([]int, len(s.blocks))
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
	best := -1
	for i, h := range s.heads {
		if h == nil {
			continue
		}
		if best < 0 || h.IDs[s.idx[i]] < s.heads[best].IDs[s.idx[best]] {
			best = i
		}
	}
	if best < 0 {
		if err := s.shutdown(); err != nil && r.err == nil {
			r.err = err
		}
		return false
	}
	h, k := s.heads[best], s.idx[best]
	s.idx[best]++
	last := s.idx[best] == len(h.IDs)
	if last && h.Err != nil {
		r.err = h.Err
		_ = s.shutdown()
		return false
	}
	if last {
		if s.limit == 0 || s.emitted+1 < s.limit {
			s.refill(best)
		} else {
			// This emission reaches the limit: the merge will never
			// need another block, so don't block on a producer that
			// may be mid-way through a long matchless stretch — the
			// next call shuts the stream down and cancels them.
			s.heads[best] = nil
		}
	}
	// The capacity cut keeps a caller's append from writing into the
	// next row of the block.
	r.vals = h.Vals[k*h.Width : (k+1)*h.Width : (k+1)*h.Width]
	s.emitted++
	return true
}

// refill receives shard i's next block, marking the shard finished
// when its channel closes.
func (s *streamSource) refill(i int) {
	b, ok := <-s.blocks[i]
	if !ok {
		b = nil
	}
	s.heads[i], s.idx[i] = b, 0
}

// shutdown aborts and joins the producers: signal done, drain every
// channel so no producer stays blocked on a send, then collect the
// scan error and totals. Idempotent; returns the first scan error.
func (s *streamSource) shutdown() error {
	if s.stopped {
		return s.waitErr
	}
	s.stopped = true
	close(s.done)
	for _, ch := range s.blocks {
		for range ch { // drain until closed so producers unblock
		}
	}
	s.total, s.waitErr = s.wait()
	return s.waitErr
}

func (s *streamSource) close() error { return s.shutdown() }

func (s *streamSource) scanned() int { return s.total }
