package tuple

import (
	"math/bits"
	"sync/atomic"

	"fungusdb/internal/clock"
)

// BatchRows is the row capacity of one scan batch: batches start at row
// offsets 0, BatchRows, 2*BatchRows, ... within a segment, so keeping it
// a multiple of 64 means every batch's liveness bitmap is a word-aligned
// subslice of the segment's bitmap — no bit shifting on the scan path.
const BatchRows = 1024

// ColView is a read-only columnar view over one attribute of a batch.
// Exactly one of the payload slices is populated, matching Kind; STRING
// columns are dictionary-encoded (Codes indexes Dict, which is shared by
// every batch of the same segment). Shard, when not nil, gives each Dict
// entry's shard code: equal codes name equal strings across every
// segment of one storage shard, for as long as the shard's lock is
// held. Batches that do not come from a shard's store leave it nil.
type ColView struct {
	Kind   Kind
	Ints   []int64
	Floats []float64
	Bools  []bool
	Codes  []uint32
	Dict   []string
	Shard  []uint32
}

// Value boxes row j of the column.
func (c *ColView) Value(j int) Value {
	switch c.Kind {
	case KindInt:
		return Int(c.Ints[j])
	case KindFloat:
		return Float(c.Floats[j])
	case KindString:
		return String_(c.Dict[c.Codes[j]])
	case KindBool:
		return Bool(c.Bools[j])
	}
	return Value{}
}

// Batch is a columnar view over up to BatchRows consecutive rows of one
// storage segment. All slices alias segment memory and are valid only
// until the scan callback returns; row j is live iff bit j of Live is
// set (bits at or above N are always clear). Seg identifies the segment
// revision the views belong to, so per-segment caches (for example
// dictionary-translated predicate tables) know when to refresh.
type Batch struct {
	N     int     // rows in the batch, live or not
	Alive int     // popcount of Live
	IDs   []ID    // row IDs
	Ts    []int64 // insertion ticks
	Fs    []float64
	Inf   []bool
	Live  []uint64 // liveness bitmap, bit j of word j/64
	Cols  []ColView
	Seg   uint64 // segment revision tag
}

// ReadRow materialises row j into dst, reusing dst's attribute slice
// when it has capacity. The attribute values alias the batch's
// dictionary strings, which outlive the batch (they belong to the
// segment), so the result is safe to hold across batches.
func (b *Batch) ReadRow(j int, dst *Tuple) {
	dst.ID = b.IDs[j]
	dst.T = clock.Tick(b.Ts[j])
	dst.F = Freshness(b.Fs[j])
	dst.Infected = b.Inf[j]
	if cap(dst.Attrs) < len(b.Cols) {
		dst.Attrs = make([]Value, len(b.Cols))
	} else {
		dst.Attrs = dst.Attrs[:len(b.Cols)]
	}
	for i := range b.Cols {
		dst.Attrs[i] = b.Cols[i].Value(j)
	}
}

// Fill lays rows out as the batch, every row live: the inverse of
// ReadRow, for callers that hold tuples and run a batch program over
// them. It reuses the batch's slices, gives each STRING value a
// dictionary entry of its own and no shard code, and takes a fresh Seg
// tag, so a cache keyed on an earlier fill's tag is never probed against
// these strings.
// Every row must match schema, and len(rows) must not exceed BatchRows.
func (b *Batch) Fill(schema *Schema, rows []Tuple) {
	n := len(rows)
	b.N, b.Alive, b.Seg = n, n, NewSegTag()
	b.IDs, b.Ts, b.Fs, b.Inf = resize(b.IDs, n), resize(b.Ts, n), resize(b.Fs, n), resize(b.Inf, n)
	b.Live = resize(b.Live, (n+63)/64)
	for w := range b.Live {
		b.Live[w] = ^uint64(0)
	}
	if n&63 != 0 {
		b.Live[n>>6] = 1<<uint(n&63) - 1
	}
	for j := range rows {
		tp := &rows[j]
		b.IDs[j], b.Ts[j], b.Fs[j], b.Inf[j] = tp.ID, int64(tp.T), float64(tp.F), tp.Infected
	}
	b.Cols = resize(b.Cols, schema.Len())
	for i := range b.Cols {
		cv := &b.Cols[i]
		cv.Kind = schema.Column(i).Kind
		switch cv.Kind {
		case KindInt:
			cv.Ints = resize(cv.Ints, n)
			for j := range rows {
				cv.Ints[j] = rows[j].Attrs[i].AsInt()
			}
		case KindFloat:
			cv.Floats = resize(cv.Floats, n)
			for j := range rows {
				cv.Floats[j] = rows[j].Attrs[i].AsFloat()
			}
		case KindString:
			cv.Codes, cv.Dict, cv.Shard = resize(cv.Codes, n), resize(cv.Dict, n), nil
			for j := range rows {
				cv.Codes[j], cv.Dict[j] = uint32(j), rows[j].Attrs[i].AsString()
			}
		case KindBool:
			cv.Bools = resize(cv.Bools, n)
			for j := range rows {
				cv.Bools[j] = rows[j].Attrs[i].AsBool()
			}
		}
	}
}

// resize returns s with length n, reallocating only when it lacks the
// capacity.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// segTags hands out batch revision tags (see Batch.Seg) process-wide.
var segTags atomic.Uint64

// NewSegTag returns a revision tag no earlier call returned. Storage
// takes one per segment, and again whenever compaction rewrites a
// segment's columns, so per-segment caches built over the dictionary —
// predicate translate tables in the query layer — invalidate exactly
// when the dictionary can have changed.
func NewSegTag() uint64 { return segTags.Add(1) }

// Row materialises row j as a freshly allocated tuple.
func (b *Batch) Row(j int) Tuple {
	var tp Tuple
	b.ReadRow(j, &tp)
	return tp
}

// PopCount returns the number of set bits across words.
func PopCount(words []uint64) int {
	n := 0
	for _, w := range words {
		n += bits.OnesCount64(w)
	}
	return n
}

// EachSet calls fn for every set bit index in words, in ascending
// order, stopping early (and reporting false) when fn returns false.
func EachSet(words []uint64, fn func(j int) bool) bool {
	for w, m := range words {
		base := w << 6
		for m != 0 {
			j := base + bits.TrailingZeros64(m)
			m &= m - 1
			if !fn(j) {
				return false
			}
		}
	}
	return true
}

// AppendSet appends every set bit index in words to dst, in ascending
// order.
func AppendSet(dst []int, words []uint64) []int {
	for w, m := range words {
		base := w << 6
		for m != 0 {
			dst = append(dst, base+bits.TrailingZeros64(m))
			m &= m - 1
		}
	}
	return dst
}
