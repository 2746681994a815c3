package storage

import (
	"fmt"
	"math"
	"testing"

	"fungusdb/internal/tuple"
)

var zoneSchema = tuple.MustSchema(
	tuple.Column{Name: "k", Kind: tuple.KindInt},
	tuple.Column{Name: "name", Kind: tuple.KindString},
)

func zoneRow(k int64, name string) []tuple.Value {
	return []tuple.Value{tuple.Int(k), tuple.String_(name)}
}

// fillZoneStore inserts n tuples with k = i and name = name-<i%8> into
// a store with small segments.
func fillZoneStore(t *testing.T, segSize, n int) *Store {
	t.Helper()
	s := New(zoneSchema, WithSegmentSize(segSize))
	for i := 0; i < n; i++ {
		if _, err := s.Insert(0, zoneRow(int64(i), fmt.Sprintf("name-%d", i%8))); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestZoneMapBoundsTrackAppends(t *testing.T) {
	s := fillZoneStore(t, 16, 40) // segments: [0,16) [16,32) [32,40)
	sg := s.segs[1]
	lo, hi, ok := sg.zone.Bounds(0)
	if !ok {
		t.Fatal("bounds unavailable")
	}
	if lo.AsInt() != 16 || hi.AsInt() != 31 {
		t.Errorf("k bounds [%v, %v], want [16, 31]", lo, hi)
	}
	idLo, idHi, ok := sg.zone.IDBounds()
	if !ok || idLo.AsInt() != 16 || idHi.AsInt() != 31 {
		t.Errorf("ID bounds [%v %v %v]", idLo, idHi, ok)
	}
	if _, _, ok := sg.zone.TickBounds(); !ok {
		t.Error("tick bounds unavailable")
	}
	// Bloom: present strings may hit, absent strings beyond the fp
	// budget must mostly miss; with 8 distinct values a definite miss
	// is deterministic to check via a value never inserted.
	if !sg.zone.MayContainString(1, "name-3") {
		t.Error("bloom lost an inserted value")
	}
	miss := 0
	for i := 0; i < 100; i++ {
		if !sg.zone.MayContainString(1, fmt.Sprintf("absent-%d", i)) {
			miss++
		}
	}
	if miss < 90 {
		t.Errorf("bloom definite-misses = %d/100, expected near-total", miss)
	}
}

// TestAuditZones: the audit passes summaries that hold their live rows
// through appends, evictions and compaction, and names a summary that
// does not — bounds that miss a value, a FLOAT column vouched for over
// a NaN, a bloom that lost a string.
func TestAuditZones(t *testing.T) {
	schema := tuple.MustSchema(
		tuple.Column{Name: "k", Kind: tuple.KindInt},
		tuple.Column{Name: "v", Kind: tuple.KindFloat},
		tuple.Column{Name: "name", Kind: tuple.KindString},
	)
	s := New(schema, WithSegmentSize(8)) // segments: [0,8) [8,16) [16,20)
	for i := 0; i < 20; i++ {
		v := float64(i) / 2
		if i == 3 || i == 17 {
			v = math.NaN()
		}
		if _, err := s.Insert(0, []tuple.Value{tuple.Int(int64(i)), tuple.Float(v), tuple.String_(fmt.Sprintf("n%d", i%3))}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, ok := s.segs[0].zone.Bounds(1); ok {
		t.Fatal("a segment holding NaN has FLOAT bounds")
	}
	for _, id := range []tuple.ID{3, 4, 12} {
		if err := s.Evict(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AuditZones(); err != nil {
		t.Fatalf("after evictions: %v", err)
	}
	s.Compact()
	if _, _, ok := s.segs[0].zone.Bounds(1); !ok {
		t.Fatal("compaction left the NaN-free segment without FLOAT bounds")
	}
	if err := s.AuditZones(); err != nil {
		t.Fatalf("after compaction: %v", err)
	}
	for _, c := range []struct {
		name    string
		seg     int
		corrupt func(z *ZoneMap)
	}{
		{"narrow INT bounds", 1, func(z *ZoneMap) { z.cols[0].iHi-- }},
		{"narrow ticks", 1, func(z *ZoneMap) { z.tMin++ }},
		{"empty bloom", 1, func(z *ZoneMap) { z.cols[2].bloom = newZoneMap(schema, 8).cols[2].bloom }},
		{"FLOAT bounds over NaN", 2, func(z *ZoneMap) {
			z.cols[1].ok, z.cols[1].fLo, z.cols[1].fHi = true, math.Inf(-1), math.Inf(1)
		}},
	} {
		saved := s.segs[c.seg].zone
		bad := *saved
		bad.cols = append([]colZone(nil), saved.cols...)
		c.corrupt(&bad)
		s.segs[c.seg].zone = &bad
		if err := s.AuditZones(); err == nil {
			t.Errorf("%s: the audit passed", c.name)
		}
		s.segs[c.seg].zone = saved
	}

	// Repeats interleave within a segment: fold skips a value only when
	// an earlier row of the segment folded it, on append and in the
	// rebuild after compaction.
	names := []string{"a", "b", "a", "c", "b", "d", "a"}
	r := New(schema, WithSegmentSize(len(names)))
	insert := func(vals ...string) {
		for _, v := range vals {
			if _, err := r.Insert(0, []tuple.Value{tuple.Int(0), tuple.Float(0), tuple.String_(v)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	insert(names...)
	for _, id := range []tuple.ID{0, 1, 5} { // a, b and d: c is the new top
		if err := r.Evict(id); err != nil {
			t.Fatal(err)
		}
	}
	r.Compact()
	if lo, hi, ok := r.segs[0].zone.Bounds(2); !ok || lo.AsString() != "a" || hi.AsString() != "c" {
		t.Errorf("compacted STRING bounds [%v, %v], want [a, c]", lo, hi)
	}
	insert("d", "b", "e", "a", "e")
	for _, sg := range r.segs {
		for j := range sg.ids {
			v := sg.cols[2].dict[sg.cols[2].codes[j]]
			lo, hi, ok := sg.zone.Bounds(2)
			if !sg.zone.MayContainString(2, v) || !ok || v < lo.AsString() || v > hi.AsString() {
				t.Errorf("segment %d: %q escapes its zone (bounds [%v, %v], ok=%v)", sg.base, v, lo, hi, ok)
			}
		}
	}
	if err := r.AuditZones(); err != nil {
		t.Errorf("interleaved repeats: %v", err)
	}
}

func TestZoneMapEvictionStaysConservative(t *testing.T) {
	s := fillZoneStore(t, 16, 32)
	// Evict the extremes of segment 0; bounds must still cover every
	// remaining live tuple (they stay a superset — loose, never wrong).
	if err := s.Evict(0); err != nil {
		t.Fatal(err)
	}
	if err := s.Evict(15); err != nil {
		t.Fatal(err)
	}
	lo, hi, ok := s.segs[0].zone.Bounds(0)
	if !ok {
		t.Fatal("bounds unavailable after evictions")
	}
	if lo.AsInt() > 1 || hi.AsInt() < 14 {
		t.Errorf("bounds [%v, %v] exclude live tuples", lo, hi)
	}
}

func TestZoneMapCompactRebuildTightens(t *testing.T) {
	s := fillZoneStore(t, 16, 32)
	for id := 0; id < 8; id++ {
		if err := s.Evict(tuple.ID(id)); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.Compact(); n != 8 {
		t.Fatalf("compact reclaimed %d, want 8", n)
	}
	lo, hi, ok := s.segs[0].zone.Bounds(0)
	if !ok {
		t.Fatal("bounds unavailable after compact")
	}
	if lo.AsInt() != 8 || hi.AsInt() != 15 {
		t.Errorf("rebuilt bounds [%v, %v], want [8, 15]", lo, hi)
	}
	// The rebuilt bloom no longer contains the evicted-only values.
	if s.segs[0].zone.MayContainString(1, "name-0") {
		t.Log("name-0 may remain (live dupes or fp) — checking a live one instead")
	}
	if !s.segs[0].zone.MayContainString(1, "name-7") {
		t.Error("rebuilt bloom lost a live value")
	}
}

func TestZoneMapFreshnessUpdateKeepsBounds(t *testing.T) {
	s := fillZoneStore(t, 16, 32)
	// Freshness-only updates (the per-tick hot path) must keep the
	// summary usable.
	if err := s.Update(3, func(tp *tuple.Tuple) { tp.F = 0.5; tp.Infected = true }); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.segs[0].zone.Bounds(0); !ok {
		t.Fatal("freshness update invalidated the zone map")
	}
}

func TestScanPrunedSkipsAndCounts(t *testing.T) {
	s := fillZoneStore(t, 16, 64) // 4 segments
	visited := 0
	ps := s.ScanBatches(func(z *ZoneMap) bool {
		_, hi, ok := z.Bounds(0)
		return ok && hi.AsInt() < 32 // skip segments wholly below 32
	}, func(b *tuple.Batch) bool {
		visited += b.Alive
		for _, k := range b.Cols[0].Ints {
			if k < 32 {
				t.Fatalf("visited pruned tuple k=%d", k)
			}
		}
		return true
	})
	if ps.Segments != 2 || ps.Tuples != 32 {
		t.Errorf("prune stats = %+v, want 2 segments / 32 tuples", ps)
	}
	if visited != 32 {
		t.Errorf("visited %d, want 32", visited)
	}
	st := s.Stats()
	if st.SegsPruned != 2 || st.TuplesSkipped != 32 {
		t.Errorf("lifetime counters = %d/%d", st.SegsPruned, st.TuplesSkipped)
	}
	// A nil skip is a plain scan.
	n := 0
	if ps := s.ScanBatches(nil, func(b *tuple.Batch) bool { n += b.Alive; return true }); ps.Segments != 0 || n != 64 {
		t.Errorf("nil-skip scan visited %d, pruned %+v", n, ps)
	}
}

func TestScanPrunedRestoredStore(t *testing.T) {
	// Zone maps must also be built on the snapshot-restore path.
	src := fillZoneStore(t, 16, 48)
	dst := New(zoneSchema, WithSegmentSize(16))
	for _, id := range liveIDs(src) {
		tp, err := src.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.Restore(tp); err != nil {
			t.Fatal(err)
		}
	}
	dst.FinishRestore()
	visited := 0
	ps := dst.ScanBatches(func(z *ZoneMap) bool {
		_, hi, ok := z.Bounds(0)
		return ok && hi.AsInt() < 16
	}, func(b *tuple.Batch) bool { visited += b.Alive; return true })
	if ps.Segments != 1 || visited != 32 {
		t.Errorf("restored store: pruned %+v, visited %d (want 1 segment, 32)", ps, visited)
	}
}
