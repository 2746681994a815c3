package storage

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"fungusdb/internal/clock"
	"fungusdb/internal/tuple"
)

// DefaultSegmentSize is the tuple capacity of one segment when the
// caller does not choose one.
const DefaultSegmentSize = 4096

// ErrNotFound is returned when an operation addresses a tuple that was
// never inserted or has been evicted.
var ErrNotFound = errors.New("storage: tuple not found")

// ErrStaleRestore is returned by Restore when the tuple's ID is behind
// the store's allocation cursor: the tuple is already present (or was
// superseded), which WAL recovery treats as "skip, not fail".
var ErrStaleRestore = errors.New("storage: stale restore")

// Store is the extent of one relation (or one shard of one, when
// created with WithStride). It is not safe for concurrent use; the
// engine layer (internal/core) serialises access per shard.
//
// A Store is read in one of two ways: whole as column batches
// (ScanBatches/ScanRanked, ScanSystem, EachBatch), or one tuple by ID
// (Get, Update, Evict, and FirstLive/LastLive/PrevLive/NextLive to find
// the IDs).
type Store struct {
	schema  *tuple.Schema
	segSize int
	stride  tuple.ID   // ID-axis step between consecutive slots (1 = unsharded)
	offset  tuple.ID   // ID of slot 0 (the shard index)
	segs    []*segment // segs[k] covers slots [k*segSize, (k+1)*segSize); nil once dropped
	first   int        // index of the first non-nil segment (all before are dropped)
	nextID  tuple.ID
	live    int
	bytes   int

	evictions uint64 // tombstones ever written
	drops     uint64 // whole segments reclaimed

	// Pruning and batch counters are atomic: pruned scans run under the
	// engine's shard read lock, so any number of them observe and skip
	// segments concurrently.
	segsPruned     atomic.Uint64 // segments skipped wholesale by pruned scans
	tuplesSkipped  atomic.Uint64 // live tuples inside those segments
	batchesScanned atomic.Uint64 // column batches handed to vectorized scans
	rowsVectorized atomic.Uint64 // live rows inside those batches

	restoreSeg int         // segment index of the last Restore, -1 outside recovery
	upScratch  tuple.Tuple // Update decode buffer (Update runs under the shard write lock)

	dicts []*shardDict // by column: the STRING columns' shard dictionaries, nil for the rest
}

// Option configures a Store.
type Option func(*Store)

// WithSegmentSize sets the per-segment tuple capacity. It panics if n
// is not positive.
func WithSegmentSize(n int) Option {
	if n <= 0 {
		panic("storage: segment size must be positive")
	}
	return func(s *Store) { s.segSize = n }
}

// WithStride makes the store own only the ID residue class
// {offset, offset+stride, offset+2*stride, ...}: shard offset of a
// stride-way sharded extent. The default (stride 1, offset 0) is the
// dense unsharded axis. It panics on an invalid pair.
func WithStride(stride, offset int) Option {
	if stride <= 0 || offset < 0 || offset >= stride {
		panic("storage: stride must be positive and 0 <= offset < stride")
	}
	return func(s *Store) {
		s.stride = tuple.ID(stride)
		s.offset = tuple.ID(offset)
		s.nextID = s.offset
	}
}

// New creates an empty Store for the given schema.
func New(schema *tuple.Schema, opts ...Option) *Store {
	s := &Store{schema: schema, segSize: DefaultSegmentSize, stride: 1, restoreSeg: -1,
		dicts: make([]*shardDict, schema.Len())}
	for _, o := range opts {
		o(s)
	}
	for i := range s.dicts {
		if schema.Column(i).Kind == tuple.KindString {
			s.dicts[i] = newShardDict()
		}
	}
	return s
}

// aligned reports whether id belongs to this store's residue class.
func (s *Store) aligned(id tuple.ID) bool {
	return id >= s.offset && (id-s.offset)%s.stride == 0
}

// slotOf converts an aligned ID to its dense slot index.
func (s *Store) slotOf(id tuple.ID) int { return int((id - s.offset) / s.stride) }

// idAt converts a dense slot index back to its ID.
func (s *Store) idAt(slot int) tuple.ID { return s.offset + tuple.ID(slot)*s.stride }

// Schema returns the relation schema.
func (s *Store) Schema() *tuple.Schema { return s.schema }

// Len returns the number of live tuples in the extent.
func (s *Store) Len() int { return s.live }

// Bytes returns the approximate live extent size in bytes.
func (s *Store) Bytes() int { return s.bytes }

// NextID returns the ID the next insert will receive.
func (s *Store) NextID() tuple.ID { return s.nextID }

// Stats summarises lifetime store activity.
type Stats struct {
	Live        int
	Bytes       int
	Inserted    uint64
	Evicted     uint64
	SegsTotal   int // segments ever created
	SegsLive    int // segments currently held
	SegsDropped uint64
	// SegsPruned counts segments skipped wholesale by zone-map pruned
	// scans; TuplesSkipped is the live tuples those segments held at
	// skip time (work the scan never did).
	SegsPruned    uint64
	TuplesSkipped uint64
	// BatchesScanned counts column batches handed out by vectorized
	// scans; RowsVectorized is the live rows those batches carried.
	BatchesScanned uint64
	RowsVectorized uint64
}

// Stats returns a snapshot of store counters.
func (s *Store) Stats() Stats {
	liveSegs := 0
	for _, sg := range s.segs {
		if sg != nil {
			liveSegs++
		}
	}
	return Stats{
		Live:           s.live,
		Bytes:          s.bytes,
		Inserted:       uint64(s.slotOf(s.nextID)),
		Evicted:        s.evictions,
		SegsTotal:      len(s.segs),
		SegsLive:       liveSegs,
		SegsDropped:    s.drops,
		SegsPruned:     s.segsPruned.Load(),
		TuplesSkipped:  s.tuplesSkipped.Load(),
		BatchesScanned: s.batchesScanned.Load(),
		RowsVectorized: s.rowsVectorized.Load(),
	}
}

// Insert validates attrs against the schema and appends a new tuple with
// full freshness at tick now, returning it.
func (s *Store) Insert(now clock.Tick, attrs []tuple.Value) (tuple.Tuple, error) {
	if err := s.schema.Validate(attrs); err != nil {
		return tuple.Tuple{}, err
	}
	tp := tuple.New(s.allocID(), now, attrs)
	s.insertRaw(tp)
	return tp, nil
}

// AdvanceNextID raises the ID the next insert will receive to at least
// id (rounded up to this store's residue class). Recovery uses it to
// restore the pre-crash allocation point so IDs of evicted tuples are
// never reused.
func (s *Store) AdvanceNextID(id tuple.ID) {
	if id <= s.nextID {
		return
	}
	if rem := (id - s.offset) % s.stride; rem != 0 {
		id += s.stride - rem
	}
	if id > s.nextID {
		s.nextID = id
	}
}

// allocID returns the ID for the next insert, skipping past segments
// that can no longer accept appends (dropped, or sealed sparse segments
// left behind by a snapshot restore). IDs stay strictly increasing but
// need not be contiguous.
func (s *Store) allocID() tuple.ID {
	for {
		segIdx := s.slotOf(s.nextID) / s.segSize
		if segIdx >= len(s.segs) {
			return s.nextID
		}
		sg := s.segs[segIdx]
		if sg != nil && !sg.sealed {
			return s.nextID
		}
		s.nextID = s.idAt((segIdx + 1) * s.segSize)
	}
}

// Restore appends a fully formed tuple (including freshness and
// infection state) during snapshot load or log replay. It accepts sparse
// IDs (snapshots only contain survivors); IDs must be strictly
// increasing across calls. Segments fully covered by gaps stay
// unallocated, and segments the restore cursor has moved past are
// sealed so they can be dropped when their last tuple is evicted. Call
// FinishRestore after the last tuple.
func (s *Store) Restore(tp tuple.Tuple) error {
	if tp.ID < s.nextID {
		return fmt.Errorf("storage: restore id %d not increasing (next %d): %w", tp.ID, s.nextID, ErrStaleRestore)
	}
	if !s.aligned(tp.ID) {
		return fmt.Errorf("storage: restore id %d outside residue class (stride %d, offset %d)", tp.ID, s.stride, s.offset)
	}
	if err := s.schema.Validate(tp.Attrs); err != nil {
		return err
	}
	segIdx := s.slotOf(tp.ID) / s.segSize
	for len(s.segs) <= segIdx {
		s.segs = append(s.segs, nil)
	}
	// Seal every earlier segment the cursor skipped or finished.
	for i := s.restoreSeg; i >= 0 && i < segIdx; i++ {
		if s.segs[i] != nil {
			s.segs[i].sealed = true
		}
	}
	if s.restoreSeg < segIdx {
		s.restoreSeg = segIdx
	}
	if s.segs[segIdx] == nil {
		s.segs[segIdx] = newSegment(s.schema, s.idAt(segIdx*s.segSize), s.segSize, s.stride)
	}
	s.segs[segIdx].append(tp, s.dicts)
	s.nextID = tp.ID + s.stride
	s.live++
	s.bytes += tp.Size()
	return nil
}

// FinishRestore seals the final restored segment when it cannot receive
// further inserts (it is sparse, so insertRaw would misalign), keeping
// the drop-when-empty invariant. A dense final segment stays open as the
// normal insert tail.
func (s *Store) FinishRestore() {
	if s.restoreSeg < 0 || s.restoreSeg >= len(s.segs) {
		return
	}
	sg := s.segs[s.restoreSeg]
	if sg != nil && sg.sparse {
		sg.sealed = true
	}
	// Advance first past any leading nil gap segments.
	for s.first < len(s.segs) && s.segs[s.first] == nil {
		s.first++
	}
}

func (s *Store) insertRaw(tp tuple.Tuple) {
	segIdx := s.slotOf(tp.ID) / s.segSize
	if segIdx >= len(s.segs) && len(s.segs) > 0 {
		// Moving past the current tail: it will never receive another
		// append (IDs only grow), so seal it to keep drop-when-empty.
		if tail := s.segs[len(s.segs)-1]; tail != nil {
			tail.sealed = true
		}
	}
	for len(s.segs) <= segIdx {
		s.segs = append(s.segs, newSegment(s.schema, s.idAt(len(s.segs)*s.segSize), s.segSize, s.stride))
	}
	s.segs[segIdx].append(tp, s.dicts)
	s.nextID += s.stride
	s.live++
	s.bytes += tp.Size()
}

// Get returns a copy of the live tuple with the given id.
func (s *Store) Get(id tuple.ID) (tuple.Tuple, error) {
	sg, j := s.locate(id)
	if sg == nil {
		return tuple.Tuple{}, ErrNotFound
	}
	var tp tuple.Tuple
	sg.readRow(j, &tp)
	return tp, nil
}

// locate returns the segment and row index of the live tuple with id,
// or (nil, -1).
func (s *Store) locate(id tuple.ID) (*segment, int) {
	sg := s.segOf(id)
	if sg == nil {
		return nil, -1
	}
	j := sg.liveSlot(id)
	if j < 0 {
		return nil, -1
	}
	return sg, j
}

func (s *Store) segOf(id tuple.ID) *segment {
	if !s.aligned(id) {
		return nil
	}
	segIdx := s.slotOf(id) / s.segSize
	if segIdx < s.first || segIdx >= len(s.segs) {
		return nil
	}
	return s.segs[segIdx]
}

// Update applies fn to the live tuple with id in place. fn may mutate
// freshness and infection state only: attributes are immutable once
// inserted, and the columnar layout writes only those two fields back.
func (s *Store) Update(id tuple.ID, fn func(*tuple.Tuple)) error {
	sg, j := s.locate(id)
	if sg == nil {
		return ErrNotFound
	}
	sg.readRow(j, &s.upScratch)
	fn(&s.upScratch)
	sg.writeBack(j, &s.upScratch)
	return nil
}

// Evict tombstones the tuple with id. A sealed segment whose last live
// tuple is evicted is dropped and its memory released — the paper's
// "removing complete insertion ranges".
func (s *Store) Evict(id tuple.ID) error {
	if !s.aligned(id) {
		return ErrNotFound
	}
	segIdx := s.slotOf(id) / s.segSize
	if segIdx < s.first || segIdx >= len(s.segs) || s.segs[segIdx] == nil {
		return ErrNotFound
	}
	sg := s.segs[segIdx]
	slot := sg.slot(id)
	if slot < 0 {
		return ErrNotFound
	}
	freed, ok := sg.kill(slot)
	if !ok {
		return ErrNotFound
	}
	s.live--
	s.bytes -= freed
	s.evictions++
	if sg.live == 0 && sg.sealed {
		s.dropSegment(segIdx)
	}
	return nil
}

// dropSegment reclaims segment i, releasing the shard codes its string
// dictionaries name.
func (s *Store) dropSegment(i int) {
	for c := range s.segs[i].cols {
		if d := s.dicts[c]; d != nil {
			s.segs[i].cols[c].release(d)
		}
	}
	s.segs[i] = nil
	s.drops++
	for s.first < len(s.segs) && s.segs[s.first] == nil {
		s.first++
	}
}

// ScanSystem hands fn the raw system columns of every segment holding
// live tuples, in insertion (time) order: row IDs, insertion ticks,
// freshness values, and the liveness bitmap (set bits mark live rows;
// bits past the appended prefix are never set). fn may mutate fs in
// place but must treat the other slices as read-only and must not evict
// or insert. Returning false stops the scan. It is the walk of decay
// laws that touch only system fields (fungus.Extent).
func (s *Store) ScanSystem(fn func(ids []tuple.ID, ts []int64, fs []float64, live []uint64) bool) {
	for i := s.first; i < len(s.segs); i++ {
		sg := s.segs[i]
		if sg == nil || sg.live == 0 {
			continue
		}
		if !fn(sg.ids, sg.ts, sg.fs, sg.liveBits) {
			return
		}
	}
}

// ScanBatches drives fn over the extent's live rows as columnar
// batches in insertion order. Before a segment with live rows is
// visited, skip (when non-nil) is consulted with its zone map and may
// veto the whole segment; it must only return true when no live tuple
// can match. Every such segment is offered, empty summaries included
// (their methods answer "unknown"), and each call is followed by that
// segment's batches or by the next call, so skip may arm state the
// batches after it use — the WHERE program's segment verdicts. Every
// batch's views alias segment memory and are valid only during the
// call; fn must not evict, insert, or mutate through them. Batches with
// no live rows are elided. Returning false stops the scan. Returns what
// was pruned; the store's lifetime counters accumulate the same numbers.
func (s *Store) ScanBatches(skip func(*ZoneMap) bool, fn func(*tuple.Batch) bool) PruneStats {
	var w batchWalk
	s.walkInOrder(&w, skip, fn)
	return s.noteWalk(&w)
}

// rankedSeg is one segment of a ranked walk: its index and score.
type rankedSeg struct {
	score float64
	seg   int
}

// rankPool recycles ranked walks' segment orders, so that a warm walk
// allocates nothing.
var rankPool = sync.Pool{New: func() any { return new([]rankedSeg) }}

// ScanRanked is ScanBatches with the segments visited best first.
// score rates every segment with live rows by its zone map, before any
// is visited; the segments are then visited by descending score, ties in
// insertion order, and one that score cannot rate (ok false) rates +Inf,
// so it comes first. Within a segment the batches run top down when
// reverse (rows inside a batch stay ascending). skip is consulted just
// before each segment, as in ScanBatches, so it may also read state fn
// has built up: an ordered top-k scan skips a segment whose score
// cannot beat its worst survivor.
func (s *Store) ScanRanked(score func(*ZoneMap) (float64, bool), reverse bool, skip func(*ZoneMap) bool, fn func(*tuple.Batch) bool) PruneStats {
	p := rankPool.Get().(*[]rankedSeg)
	ranked := (*p)[:0]
	for i := s.first; i < len(s.segs); i++ {
		if sg := s.segs[i]; sg != nil && sg.live > 0 {
			sc, ok := score(sg.zone)
			if !ok || sc != sc {
				sc = math.Inf(1)
			}
			ranked = append(ranked, rankedSeg{score: sc, seg: i})
		}
	}
	slices.SortFunc(ranked, func(a, b rankedSeg) int {
		switch {
		case a.score > b.score:
			return -1
		case a.score < b.score:
			return 1
		}
		return a.seg - b.seg
	})
	var w batchWalk
	for _, r := range ranked {
		if !w.segment(s.segs[r.seg], reverse, skip, fn) {
			break
		}
	}
	*p = ranked
	rankPool.Put(p)
	return s.noteWalk(&w)
}

// EachBatch hands fn the extent's live rows as columnar batches in
// insertion order, with nothing pruned, for a reader that serialises,
// profiles or decays the extent rather than queries it: no scan or
// pruning counter moves. The rules are ScanBatches', with one
// permission more: fn may write b.Fs and b.Inf, which alias segment
// memory — how decay laws that read attributes tick (fungus.Extent).
func (s *Store) EachBatch(fn func(*tuple.Batch) bool) {
	var w batchWalk
	s.walkInOrder(&w, nil, fn)
}

// walkInOrder runs w over the segments in insertion order.
func (s *Store) walkInOrder(w *batchWalk, skip func(*ZoneMap) bool, fn func(*tuple.Batch) bool) {
	for i := s.first; i < len(s.segs); i++ {
		if !w.segment(s.segs[i], false, skip, fn) {
			return
		}
	}
}

// batchWalk is the state of one batch walk: the batch it hands out,
// what it pruned, and the batches and live rows it handed out.
type batchWalk struct {
	b       tuple.Batch
	ps      PruneStats
	batches uint64
	rows    uint64
}

// segment walks one segment (nil is skipped) for the scans above,
// reporting false once fn has stopped the walk.
func (w *batchWalk) segment(sg *segment, reverse bool, skip func(*ZoneMap) bool, fn func(*tuple.Batch) bool) bool {
	if sg == nil {
		return true
	}
	if skip != nil && sg.live > 0 && skip(sg.zone) {
		w.ps.Segments++
		w.ps.Tuples += sg.live
		return true
	}
	nb := (sg.rows() + tuple.BatchRows - 1) / tuple.BatchRows
	for bi := 0; bi < nb; bi++ {
		start := bi * tuple.BatchRows
		if reverse {
			start = (nb - 1 - bi) * tuple.BatchRows
		}
		sg.fillBatch(start, &w.b)
		if w.b.Alive == 0 {
			continue
		}
		w.batches++
		w.rows += uint64(w.b.Alive)
		if !fn(&w.b) {
			return false
		}
	}
	return true
}

// noteWalk folds one scan's volume and pruning into the lifetime
// counters and returns what it pruned.
func (s *Store) noteWalk(w *batchWalk) PruneStats {
	if w.batches > 0 {
		s.batchesScanned.Add(w.batches)
		s.rowsVectorized.Add(w.rows)
	}
	if w.ps.Segments > 0 {
		s.segsPruned.Add(uint64(w.ps.Segments))
		s.tuplesSkipped.Add(uint64(w.ps.Tuples))
	}
	return w.ps
}

// PrevLive returns the nearest live tuple ID strictly before id on the
// time axis, with ok=false when none exists. id itself need not be live
// or belong to this store's residue class.
func (s *Store) PrevLive(id tuple.ID) (tuple.ID, bool) {
	if id <= s.offset {
		return 0, false
	}
	bound := id - 1 // largest candidate ID (ID-space; may be unaligned)
	segIdx := s.slotOf(bound-(bound-s.offset)%s.stride) / s.segSize
	if segIdx >= len(s.segs) {
		segIdx = len(s.segs) - 1
		bound = s.idAt(len(s.segs)*s.segSize) - 1
	}
	for i := segIdx; i >= s.first; i-- {
		sg := s.segs[i]
		if sg != nil {
			if got, ok := sg.lastLiveAtOrBelow(bound); ok {
				return got, true
			}
		}
		if i == 0 {
			break
		}
		bound = s.idAt(i*s.segSize) - 1
	}
	return 0, false
}

// NextLive returns the nearest live tuple ID strictly after id, with
// ok=false when none exists. id need not belong to this store's residue
// class.
func (s *Store) NextLive(id tuple.ID) (tuple.ID, bool) {
	bound := id + 1 // smallest candidate ID (ID-space; may be unaligned)
	if bound < s.offset {
		bound = s.offset
	}
	// Slot of the smallest aligned ID >= bound.
	slot := int((bound - s.offset + s.stride - 1) / s.stride)
	segIdx := slot / s.segSize
	if segIdx < s.first {
		segIdx = s.first
		bound = s.idAt(s.first * s.segSize)
	}
	for i := segIdx; i < len(s.segs); i++ {
		sg := s.segs[i]
		if sg != nil {
			if got, ok := sg.firstLiveAtOrAbove(bound); ok {
				return got, true
			}
		}
		bound = s.idAt((i + 1) * s.segSize)
	}
	return 0, false
}

// FirstLive returns the smallest live tuple ID, with ok=false when the
// extent is empty.
func (s *Store) FirstLive() (tuple.ID, bool) {
	for i := s.first; i < len(s.segs); i++ {
		sg := s.segs[i]
		if sg == nil {
			continue
		}
		if got, ok := sg.firstLiveAtOrAbove(sg.base); ok {
			return got, true
		}
	}
	return 0, false
}

// LastLive returns the largest live tuple ID, with ok=false when the
// extent is empty.
func (s *Store) LastLive() (tuple.ID, bool) {
	if s.nextID == s.offset {
		return 0, false
	}
	return s.PrevLive(s.nextID)
}

// AuditZones checks every segment's zone map against the rows it
// summarises: the bounds of each column and of the tick and ID axes
// contain every live value, every live string passes its column's
// bloom, and a FLOAT column has bounds only if no live row holds NaN.
// It also checks the shard dictionaries: every segment's shard codes
// name the strings its dictionary holds, and each code is counted once
// per segment dictionary that names it and indexed while counted.
// Scans read the summaries as proofs (a segment skipped, a kernel or
// NaN check elided) and the group index reads the shard codes as string
// identity, so tests call it wherever either is built or rebuilt. An
// empty summary vouches for nothing and passes. It returns the first
// violation.
func (s *Store) AuditZones() error {
	for _, sg := range s.segs[s.first:] {
		if sg == nil {
			continue
		}
		for j := range sg.ids {
			if !sg.liveAt(j) {
				continue
			}
			if err := sg.zone.covers(sg, j); err != nil {
				return fmt.Errorf("storage: zone of segment %d, row %d (ID %d): %w", sg.base, j, sg.ids[j], err)
			}
		}
	}
	for c, d := range s.dicts {
		if d == nil {
			continue
		}
		if err := s.auditDict(c, d); err != nil {
			return fmt.Errorf("storage: shard dictionary of column %d: %w", c, err)
		}
	}
	return nil
}

// auditDict is AuditZones' check of column c's shard dictionary d.
func (s *Store) auditDict(c int, d *shardDict) error {
	refs := make([]int32, len(d.entries))
	for _, sg := range s.segs[s.first:] {
		if sg == nil {
			continue
		}
		col := &sg.cols[c]
		if len(col.shard) != len(col.dict) {
			return fmt.Errorf("segment %d: %d shard codes for %d strings", sg.base, len(col.shard), len(col.dict))
		}
		for l, sc := range col.shard {
			if int(sc) >= len(d.entries) || d.entries[sc].s != col.dict[l] {
				return fmt.Errorf("segment %d: code %d names shard code %d, not %q", sg.base, l, sc, col.dict[l])
			}
			refs[sc]++
		}
	}
	named := 0
	for sc, e := range d.entries {
		if e.refs != refs[sc] {
			return fmt.Errorf("shard code %d (%q) counts %d segments, %d name it", sc, e.s, e.refs, refs[sc])
		}
		if e.refs == 0 {
			continue
		}
		named++
		if got, ok := d.index[e.s]; !ok || got != uint32(sc) {
			return fmt.Errorf("%q indexed as %d (present %v), named as %d", e.s, got, ok, sc)
		}
	}
	if len(d.index) != named {
		return fmt.Errorf("%d strings indexed, %d named", len(d.index), named)
	}
	return nil
}

// Compact rewrites partially dead sealed segments, physically removing
// tombstoned tuples while preserving IDs (segments become sparse). It
// returns the number of tombstone slots reclaimed. Compact never changes
// which tuples a walk or a by-ID lookup observes, only memory usage; the
// unsealed tail segment is skipped. Every compacted segment's zone map is
// rebuilt over its live tuples, tightening eviction-loosened bounds.
//
// This is the "deferred compaction" arm of the ablation in DESIGN.md;
// eager deletion corresponds to calling Compact after every Evict.
func (s *Store) Compact() int {
	reclaimed := 0
	for i := s.first; i < len(s.segs); i++ {
		sg := s.segs[i]
		if sg == nil {
			continue
		}
		if !sg.sealed {
			continue
		}
		if sg.live == 0 {
			reclaimed += sg.rows()
			s.dropSegment(i)
			continue
		}
		if sg.live == sg.rows() {
			continue
		}
		reclaimed += sg.compactInPlace(s.dicts)
		sg.zone.rebuild(sg)
	}
	return reclaimed
}
