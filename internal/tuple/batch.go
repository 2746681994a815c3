package tuple

import (
	"math/bits"

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
// every batch of the same segment).
type ColView struct {
	Kind   Kind
	Ints   []int64
	Floats []float64
	Bools  []bool
	Codes  []uint32
	Dict   []string
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
