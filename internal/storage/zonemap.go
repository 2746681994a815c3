package storage

import (
	"math"

	"fungusdb/internal/sketch"
	"fungusdb/internal/tuple"
)

// zoneBloomFP is the per-segment string bloom's false-positive rate. A
// false positive only costs a wasted segment scan, so the filters stay
// small (~1.2 bytes per string value at 1%).
const zoneBloomFP = 0.01

// ZoneMap is the per-segment pruning summary: inclusive min/max bounds
// for every attribute column plus the insertion-tick and ID axes, and a
// Bloom filter over each STRING column. Bounds cover every tuple ever
// appended to the segment, live or tombstoned — a superset of the live
// set — so eviction (rot, consume) never needs to touch them: they stay
// conservative, merely loose. Attributes are immutable once inserted,
// so nothing ever invalidates a summary: evictions only loosen it, and
// Compact rebuilds it over the survivors, tightening the bounds.
//
// Maintenance sits on the insert hot path, so each column's bounds are
// kept in raw kind-specialised form (int64/float64/string) and only
// boxed into tuple.Values when a scan consults them.
//
// Freshness carries no zone map: the fungus layer rewrites it on every
// tick, so any recorded bound would go stale in the dangerous
// direction. Predicates over _f simply never prune.
//
// The query layer consumes a ZoneMap through its own structurally
// matching ZoneView interface, keeping storage free of query imports.
type ZoneMap struct {
	schema *tuple.Schema
	cols   []colZone
	tMin   int64
	tMax   int64
	idMin  tuple.ID
	idMax  tuple.ID
	seen   bool // at least one tuple folded in
}

// colZone summarises one attribute column. Which bound fields are live
// depends on kind: iLo/iHi for INT and BOOL (0/1), fLo/fHi for FLOAT,
// sLo/sHi (plus the bloom) for STRING.
type colZone struct {
	kind     tuple.Kind
	ok       bool // bounds usable (false after an incomparable value, e.g. NaN)
	iLo, iHi int64
	fLo, fHi float64
	sLo, sHi string
	bloom    *sketch.Bloom // STRING columns only
	lastCode uint32        // dictionary code last folded (dedup memo)
	hasLast  bool
}

// TestHookZoneFold, when non-nil, observes every per-row zone fold.
// Recovery tests use it to prove that snapshot-installed summaries skip
// the per-tuple rebuild. Not for production use.
var TestHookZoneFold func()

// newZoneMap builds an empty summary for a segment of the given tuple
// capacity.
func newZoneMap(schema *tuple.Schema, capacity int) *ZoneMap {
	z := &ZoneMap{schema: schema, cols: make([]colZone, schema.Len())}
	for i := range z.cols {
		z.cols[i].kind = schema.Column(i).Kind
		if z.cols[i].kind == tuple.KindString {
			z.cols[i].bloom = sketch.MustBloom(uint64(capacity), zoneBloomFP)
		}
	}
	return z
}

// fold folds row j of the segment into the summary, reading the typed
// column slices directly — no tuple is materialised on the insert hot
// path.
func (z *ZoneMap) fold(sg *segment, j int) {
	if TestHookZoneFold != nil {
		TestHookZoneFold()
	}
	first := !z.seen
	if first {
		z.seen = true
		z.tMin, z.tMax = sg.ts[j], sg.ts[j]
		z.idMin, z.idMax = sg.ids[j], sg.ids[j]
	} else {
		if t := sg.ts[j]; t < z.tMin {
			z.tMin = t
		} else if t > z.tMax {
			z.tMax = t
		}
		if id := sg.ids[j]; id < z.idMin {
			z.idMin = id
		} else if id > z.idMax {
			z.idMax = id
		}
	}
	for i := range z.cols {
		c := &z.cols[i]
		col := &sg.cols[i]
		switch c.kind {
		case tuple.KindInt:
			v := col.ints[j]
			if first {
				c.iLo, c.iHi, c.ok = v, v, true
			} else if v < c.iLo {
				c.iLo = v
			} else if v > c.iHi {
				c.iHi = v
			}
		case tuple.KindFloat:
			v := col.floats[j]
			switch {
			case math.IsNaN(v):
				// NaN is unordered: no bounds can cover it, so the
				// column stays unprunable for this segment's lifetime.
				c.ok = false
			case first:
				c.fLo, c.fHi, c.ok = v, v, true
			case c.ok:
				if v < c.fLo {
					c.fLo = v
				} else if v > c.fHi {
					c.fHi = v
				}
			}
		case tuple.KindString:
			code := col.codes[j]
			if !first && c.hasLast && code == c.lastCode {
				// Insertion-time clustering makes value repeats the
				// common case; a repeat changes neither the bounds nor
				// the bloom's bits, so skip the hash. It still counts:
				// a summary installed from a snapshot has lost this memo
				// and folds the row in full, and both must serialise the
				// same bytes (replicas compare zone blobs).
				if c.bloom != nil {
					c.bloom.AddRepeat()
				}
				break
			}
			v := col.dict[code]
			if first {
				c.sLo, c.sHi, c.ok = v, v, true
			} else {
				if v < c.sLo {
					c.sLo = v
				} else if v > c.sHi {
					c.sHi = v
				}
			}
			if c.bloom != nil {
				c.bloom.AddString(v)
			}
			c.lastCode, c.hasLast = code, true
		case tuple.KindBool:
			var v int64
			if col.bools[j] {
				v = 1
			}
			if first {
				c.iLo, c.iHi, c.ok = v, v, true
			} else if v < c.iLo {
				c.iLo = v
			} else if v > c.iHi {
				c.iHi = v
			}
		}
	}
}

// rebuild recomputes the summary over the segment's live rows,
// tightening eviction-loosened bounds. The bloom is sized to the
// segment's full capacity, as when the segment was created. The caller
// must hold the shard's write lock.
func (z *ZoneMap) rebuild(sg *segment) {
	capacity := sg.capacity
	if capacity < 1 {
		capacity = 1
	}
	fresh := newZoneMap(z.schema, capacity)
	for j := range sg.ids {
		if sg.liveAt(j) {
			fresh.fold(sg, j)
		}
	}
	*z = *fresh
}

// usable reports whether the summary may be consulted at all.
func (z *ZoneMap) usable() bool { return z.seen }

// Bounds returns the inclusive bounds of schema column i, with ok=false
// when the summary cannot vouch for them (empty, or poisoned by an
// incomparable value).
func (z *ZoneMap) Bounds(i int) (lo, hi tuple.Value, ok bool) {
	if !z.usable() || i < 0 || i >= len(z.cols) || !z.cols[i].ok {
		return tuple.Value{}, tuple.Value{}, false
	}
	c := &z.cols[i]
	switch c.kind {
	case tuple.KindInt:
		return tuple.Int(c.iLo), tuple.Int(c.iHi), true
	case tuple.KindFloat:
		return tuple.Float(c.fLo), tuple.Float(c.fHi), true
	case tuple.KindString:
		return tuple.String_(c.sLo), tuple.String_(c.sHi), true
	case tuple.KindBool:
		return tuple.Bool(c.iLo != 0), tuple.Bool(c.iHi != 0), true
	}
	return tuple.Value{}, tuple.Value{}, false
}

// TickBounds returns the inclusive insertion-tick bounds as INT values.
func (z *ZoneMap) TickBounds() (lo, hi tuple.Value, ok bool) {
	if !z.usable() {
		return tuple.Value{}, tuple.Value{}, false
	}
	return tuple.Int(z.tMin), tuple.Int(z.tMax), true
}

// IDBounds returns the inclusive tuple-ID bounds as INT values.
func (z *ZoneMap) IDBounds() (lo, hi tuple.Value, ok bool) {
	if !z.usable() {
		return tuple.Value{}, tuple.Value{}, false
	}
	return tuple.Int(int64(z.idMin)), tuple.Int(int64(z.idMax)), true
}

// MayContainString reports whether column i may hold the string s.
// False means definitely absent; true when present, unknown, or the
// column has no bloom.
func (z *ZoneMap) MayContainString(i int, s string) bool {
	if !z.usable() || i < 0 || i >= len(z.cols) || z.cols[i].bloom == nil {
		return true
	}
	return z.cols[i].bloom.MayContainString(s)
}

// PruneStats reports what one pruned scan skipped.
type PruneStats struct {
	Segments int // segments skipped wholesale
	Tuples   int // live tuples inside those segments
}
