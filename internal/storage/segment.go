// Package storage implements the extent of a relation: an append-only,
// time-ordered tuple store organised into fixed-capacity segments.
//
// Tuple IDs are assigned densely in insertion order and never reused, so
// the ID axis coincides with the paper's insertion-time axis. Segment k
// of an unsharded store owns IDs [k*cap, (k+1)*cap). Eviction (rot or
// consume-on-query) marks tombstones; a fully dead segment is dropped
// wholesale, which is how the paper's "removing complete insertion
// ranges" materialises.
//
// A ShardedStore horizontally partitions one extent across N Stores:
// shard s owns the ID residue class {s, s+N, s+2N, ...} (stride N,
// offset s), and inserts are dealt round-robin so single-threaded
// insertion still produces the dense global sequence 0, 1, 2, ... Each
// shard is an independent Store — its own segments, counters and
// fungus.Extent surface — which is what lets the engine decay and scan
// shards on separate cores.
package storage

import (
	"sort"

	"fungusdb/internal/clock"
	"fungusdb/internal/tuple"
)

// colVec stores one attribute column of a segment as a contiguous typed
// slice. Exactly one payload slice is in use, selected by kind; STRING
// values are dictionary-encoded (codes index dict, lookup inverts it).
type colVec struct {
	kind   tuple.Kind
	ints   []int64
	floats []float64
	bools  []bool
	codes  []uint32
	dict   []string
	lookup map[string]uint32
}

func newColVec(kind tuple.Kind, capacity int) colVec {
	c := colVec{kind: kind}
	switch kind {
	case tuple.KindInt:
		c.ints = make([]int64, 0, capacity)
	case tuple.KindFloat:
		c.floats = make([]float64, 0, capacity)
	case tuple.KindBool:
		c.bools = make([]bool, 0, capacity)
	case tuple.KindString:
		c.codes = make([]uint32, 0, capacity)
		c.lookup = make(map[string]uint32)
	}
	return c
}

// code interns s into the dictionary and returns its code.
func (c *colVec) code(s string) uint32 {
	if code, ok := c.lookup[s]; ok {
		return code
	}
	code := uint32(len(c.dict))
	c.dict = append(c.dict, s)
	c.lookup[s] = code
	return code
}

// appendVal appends one value. v's kind must match the column's.
func (c *colVec) appendVal(v tuple.Value) {
	switch c.kind {
	case tuple.KindInt:
		c.ints = append(c.ints, v.AsInt())
	case tuple.KindFloat:
		c.floats = append(c.floats, v.AsFloat())
	case tuple.KindBool:
		c.bools = append(c.bools, v.AsBool())
	case tuple.KindString:
		c.codes = append(c.codes, c.code(v.AsString()))
	}
}

// value boxes row j.
func (c *colVec) value(j int) tuple.Value {
	switch c.kind {
	case tuple.KindInt:
		return tuple.Int(c.ints[j])
	case tuple.KindFloat:
		return tuple.Float(c.floats[j])
	case tuple.KindBool:
		return tuple.Bool(c.bools[j])
	case tuple.KindString:
		return tuple.String_(c.dict[c.codes[j]])
	}
	return tuple.Value{}
}

// valueBytes returns the accounting footprint of row j, matching
// tuple.Value.Size for the boxed form.
func (c *colVec) valueBytes(j int) int {
	if c.kind == tuple.KindString {
		return 16 + len(c.dict[c.codes[j]])
	}
	return 16
}

// view returns the [lo, hi) window as a batch column view.
func (c *colVec) view(lo, hi int) tuple.ColView {
	out := tuple.ColView{Kind: c.kind}
	switch c.kind {
	case tuple.KindInt:
		out.Ints = c.ints[lo:hi]
	case tuple.KindFloat:
		out.Floats = c.floats[lo:hi]
	case tuple.KindBool:
		out.Bools = c.bools[lo:hi]
	case tuple.KindString:
		out.Codes = c.codes[lo:hi]
		out.Dict = c.dict
	}
	return out
}

// segment holds tuples whose IDs fall in [base, base+capacity*stride),
// striding the ID axis (stride 1 for an unsharded store; shard s of N
// holds IDs ≡ s mod N with stride N). Storage is columnar: the system
// axes (id, tick, freshness, infection) and every attribute live in
// contiguous typed slices indexed by row, with a liveness bitmap marking
// tombstones — the layout the batch scan hands out as zero-copy column
// views. While dense (the normal state) slot addressing is
// (id-base)/stride; after compaction the segment becomes sparse —
// tombstoned rows are physically removed, IDs are preserved — and slot
// addressing binary-searches the id column.
type segment struct {
	base     tuple.ID
	stride   tuple.ID
	capacity int
	tag      uint64 // revision tag, renewed by compaction

	ids      []tuple.ID
	ts       []int64
	fs       []float64
	inf      []bool
	liveBits []uint64 // bit j set = row j live
	cols     []colVec

	live   int      // number of non-tombstoned rows
	bytes  int      // accounting size of live rows
	sealed bool     // reached capacity at least once; no further appends
	sparse bool     // compacted: IDs no longer dense, use binary search
	zone   *ZoneMap // pruning summary, maintained on append
}

func newSegment(schema *tuple.Schema, base tuple.ID, capacity int, stride tuple.ID) *segment {
	sg := &segment{
		base:     base,
		stride:   stride,
		capacity: capacity,
		tag:      tuple.NewSegTag(),
		ids:      make([]tuple.ID, 0, capacity),
		ts:       make([]int64, 0, capacity),
		fs:       make([]float64, 0, capacity),
		inf:      make([]bool, 0, capacity),
		liveBits: make([]uint64, 0, (capacity+63)/64),
		cols:     make([]colVec, schema.Len()),
		zone:     newZoneMap(schema, capacity),
	}
	for i := range sg.cols {
		sg.cols[i] = newColVec(schema.Column(i).Kind, capacity)
	}
	return sg
}

// rows returns the number of rows, live or tombstoned.
func (s *segment) rows() int { return len(s.ids) }

// liveAt reports whether row j is live.
func (s *segment) liveAt(j int) bool {
	return s.liveBits[j>>6]&(1<<(uint(j)&63)) != 0
}

// append adds a tuple with an ID greater than any present. The segment
// turns sparse when the ID skips slots (possible after ID-space gaps
// left by recovery).
func (s *segment) append(tp tuple.Tuple) {
	j := len(s.ids)
	if tp.ID != s.base+tuple.ID(j)*s.stride {
		s.sparse = true
	}
	s.ids = append(s.ids, tp.ID)
	s.ts = append(s.ts, int64(tp.T))
	s.fs = append(s.fs, float64(tp.F))
	s.inf = append(s.inf, tp.Infected)
	for i := range s.cols {
		s.cols[i].appendVal(tp.Attrs[i])
	}
	if j>>6 == len(s.liveBits) {
		s.liveBits = append(s.liveBits, 0)
	}
	s.liveBits[j>>6] |= 1 << (uint(j) & 63)
	s.live++
	s.bytes += tp.Size()
	s.zone.fold(s, j)
	if len(s.ids) == s.capacity {
		s.sealed = true
	}
}

// slot returns the row index of id, or -1 if absent.
func (s *segment) slot(id tuple.ID) int {
	if !s.sparse {
		if id < s.base || (id-s.base)%s.stride != 0 {
			return -1
		}
		i := int((id - s.base) / s.stride)
		if i >= len(s.ids) {
			return -1
		}
		return i
	}
	i := sort.Search(len(s.ids), func(j int) bool { return s.ids[j] >= id })
	if i < len(s.ids) && s.ids[i] == id {
		return i
	}
	return -1
}

// liveSlot returns the row index of id if it is present and live.
func (s *segment) liveSlot(id tuple.ID) int {
	i := s.slot(id)
	if i < 0 || !s.liveAt(i) {
		return -1
	}
	return i
}

// readRow materialises row j into dst, reusing dst's attribute slice
// when it has capacity. Attribute strings alias the dictionary, which
// lives as long as the segment.
func (s *segment) readRow(j int, dst *tuple.Tuple) {
	dst.ID = s.ids[j]
	dst.T = clock.Tick(s.ts[j])
	dst.F = tuple.Freshness(s.fs[j])
	dst.Infected = s.inf[j]
	if cap(dst.Attrs) < len(s.cols) {
		dst.Attrs = make([]tuple.Value, len(s.cols))
	} else {
		dst.Attrs = dst.Attrs[:len(s.cols)]
	}
	for i := range s.cols {
		dst.Attrs[i] = s.cols[i].value(j)
	}
}

// writeBack persists the in-place mutations an Update is allowed to
// make — freshness and infection state — from the decoded tuple back
// into the columns.
func (s *segment) writeBack(j int, tp *tuple.Tuple) {
	s.fs[j] = float64(tp.F)
	s.inf[j] = tp.Infected
}

// rowSize returns the accounting footprint of row j, matching
// tuple.Tuple.Size for the decoded form.
func (s *segment) rowSize(j int) int {
	n := 56 // id + tick + freshness + infected + pad + slice header
	for i := range s.cols {
		n += s.cols[i].valueBytes(j)
	}
	return n
}

// kill tombstones row j if still live, returning the bytes freed and
// whether it did.
func (s *segment) kill(j int) (int, bool) {
	if !s.liveAt(j) {
		return 0, false
	}
	s.liveBits[j>>6] &^= 1 << (uint(j) & 63)
	s.live--
	freed := s.rowSize(j)
	s.bytes -= freed
	return freed, true
}

// fillBatch populates b with the rows [start, min(start+BatchRows, rows)).
// start must be a multiple of BatchRows so the liveness view is
// word-aligned.
func (s *segment) fillBatch(start int, b *tuple.Batch) {
	end := start + tuple.BatchRows
	if end > len(s.ids) {
		end = len(s.ids)
	}
	b.N = end - start
	b.IDs = s.ids[start:end]
	b.Ts = s.ts[start:end]
	b.Fs = s.fs[start:end]
	b.Inf = s.inf[start:end]
	b.Live = s.liveBits[start>>6 : (end+63)>>6]
	b.Seg = s.tag
	if cap(b.Cols) < len(s.cols) {
		b.Cols = make([]tuple.ColView, len(s.cols))
	} else {
		b.Cols = b.Cols[:len(s.cols)]
	}
	for i := range s.cols {
		b.Cols[i] = s.cols[i].view(start, end)
	}
	b.Alive = tuple.PopCount(b.Live)
}

// compactInPlace rewrites the segment's columns keeping only live rows,
// returning the number of tombstone slots reclaimed. IDs are preserved;
// the segment becomes sparse and gets a fresh revision tag (the string
// dictionaries are rebuilt, so codes change).
func (s *segment) compactInPlace() int {
	reclaimed := len(s.ids) - s.live
	ids := make([]tuple.ID, 0, s.live)
	ts := make([]int64, 0, s.live)
	fs := make([]float64, 0, s.live)
	inf := make([]bool, 0, s.live)
	cols := make([]colVec, len(s.cols))
	for i := range cols {
		cols[i] = newColVec(s.cols[i].kind, s.live)
	}
	for j := range s.ids {
		if !s.liveAt(j) {
			continue
		}
		ids = append(ids, s.ids[j])
		ts = append(ts, s.ts[j])
		fs = append(fs, s.fs[j])
		inf = append(inf, s.inf[j])
		for i := range cols {
			cols[i].appendVal(s.cols[i].value(j))
		}
	}
	s.ids, s.ts, s.fs, s.inf, s.cols = ids, ts, fs, inf, cols
	s.liveBits = make([]uint64, (len(ids)+63)/64)
	for j := range ids {
		s.liveBits[j>>6] |= 1 << (uint(j) & 63)
	}
	s.sparse = true
	s.tag = tuple.NewSegTag()
	return reclaimed
}

// lastLiveAtOrBelow returns the greatest live tuple ID <= bound in s.
func (s *segment) lastLiveAtOrBelow(bound tuple.ID) (tuple.ID, bool) {
	// Index of the last row with ID <= bound.
	j := sort.Search(len(s.ids), func(k int) bool { return s.ids[k] > bound }) - 1
	for ; j >= 0; j-- {
		if s.liveAt(j) {
			return s.ids[j], true
		}
	}
	return 0, false
}

// firstLiveAtOrAbove returns the least live tuple ID >= bound in s.
func (s *segment) firstLiveAtOrAbove(bound tuple.ID) (tuple.ID, bool) {
	j := sort.Search(len(s.ids), func(k int) bool { return s.ids[k] >= bound })
	for ; j < len(s.ids); j++ {
		if s.liveAt(j) {
			return s.ids[j], true
		}
	}
	return 0, false
}
