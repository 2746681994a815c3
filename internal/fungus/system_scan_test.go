package fungus

import (
	"math/rand"
	"testing"

	"fungusdb/internal/clock"
	"fungusdb/internal/storage"
	"fungusdb/internal/tuple"
)

// rowLaw is a decay law written row at a time: a tick over the decoded
// tuples of a store, mutating freshness and infection in place.
type rowLaw func(now clock.Tick, s *storage.Store, rng *rand.Rand, rotten []tuple.ID) []tuple.ID

// eachRow is the walk the references below use: every live tuple in ID
// order, found by FirstLive/NextLive and read and written back one at a
// time through Update. It never goes through a batch walk, so a bug in
// one cannot hide on both sides of a parity check.
func eachRow(s *storage.Store, fn func(*tuple.Tuple)) {
	for id, ok := s.FirstLive(); ok; id, ok = s.NextLive(id) {
		if err := s.Update(id, fn); err != nil {
			panic(err)
		}
	}
}

// The references below are the laws as they read before they walked
// column slices: one decoded tuple at a time.

func refTTL(lifetime uint64) rowLaw {
	return func(now clock.Tick, s *storage.Store, _ *rand.Rand, rotten []tuple.ID) []tuple.ID {
		eachRow(s, func(tp *tuple.Tuple) {
			age := uint64(now - tp.T)
			if age >= lifetime {
				tp.F = 0
				rotten = append(rotten, tp.ID)
				return
			}
			tp.F = tuple.Freshness(1 - float64(age)/float64(lifetime))
		})
		return rotten
	}
}

func refLinear(rate float64) rowLaw {
	return func(_ clock.Tick, s *storage.Store, _ *rand.Rand, rotten []tuple.ID) []tuple.ID {
		eachRow(s, func(tp *tuple.Tuple) {
			tp.F = (tp.F - tuple.Freshness(rate)).Clamp()
			if tp.F.Rotten() {
				rotten = append(rotten, tp.ID)
			}
		})
		return rotten
	}
}

func refExponential(factor float64) rowLaw {
	return func(_ clock.Tick, s *storage.Store, _ *rand.Rand, rotten []tuple.ID) []tuple.ID {
		eachRow(s, func(tp *tuple.Tuple) {
			tp.F = tuple.Freshness(float64(tp.F) * factor)
			if float64(tp.F) < rotThreshold {
				tp.F = 0
				rotten = append(rotten, tp.ID)
			}
		})
		return rotten
	}
}

func refStaggered(rate float64, phases uint64) rowLaw {
	return func(now clock.Tick, s *storage.Store, _ *rand.Rand, rotten []tuple.ID) []tuple.ID {
		phase := uint64(now) % phases
		step := tuple.Freshness(rate * float64(phases))
		eachRow(s, func(tp *tuple.Tuple) {
			if uint64(tp.ID)%phases != phase {
				return
			}
			tp.F = (tp.F - step).Clamp()
			if tp.F.Rotten() {
				rotten = append(rotten, tp.ID)
			}
		})
		return rotten
	}
}

func refValueRate(column int, scale float64) rowLaw {
	return func(_ clock.Tick, s *storage.Store, _ *rand.Rand, rotten []tuple.ID) []tuple.ID {
		eachRow(s, func(tp *tuple.Tuple) {
			if column < 0 || column >= len(tp.Attrs) {
				return
			}
			rate, ok := tp.Attrs[column].Numeric()
			if !ok || rate < 0 {
				return
			}
			tp.F = (tp.F - tuple.Freshness(rate*scale)).Clamp()
			if tp.F.Rotten() {
				rotten = append(rotten, tp.ID)
			}
		})
		return rotten
	}
}

// refTargeted shields the tuples keep rejects from inner: it saves them
// before the inner tick, restores them one Update at a time after it,
// and drops them from the rot report.
func refTargeted(inner Fungus, keep func(*tuple.Tuple) (bool, error)) rowLaw {
	return func(now clock.Tick, s *storage.Store, rng *rand.Rand, rotten []tuple.ID) []tuple.ID {
		var shield []tuple.Tuple
		eachRow(s, func(tp *tuple.Tuple) {
			if ok, _ := keep(tp); !ok {
				shield = append(shield, tuple.Tuple{ID: tp.ID, F: tp.F, Infected: tp.Infected})
			}
		})
		before := len(rotten)
		rotten = inner.Tick(now, s, rng, rotten)
		shielded := make(map[tuple.ID]bool, len(shield))
		for _, sv := range shield {
			shielded[sv.ID] = true
			_ = s.Update(sv.ID, func(tp *tuple.Tuple) {
				tp.F, tp.Infected = sv.F, sv.Infected
			})
		}
		kept := rotten[:before]
		for _, id := range rotten[before:] {
			if !shielded[id] {
				kept = append(kept, id)
			} else if egi, ok := inner.(*EGI); ok {
				egi.Forget(id)
			}
		}
		return kept
	}
}

// rowState is what a tick may change about one tuple.
type rowState struct {
	F        tuple.Freshness
	Infected bool
}

// stateMap snapshots every live tuple's freshness and infection keyed by
// ID, read by ID.
func stateMap(s *storage.Store) map[tuple.ID]rowState {
	m := make(map[tuple.ID]rowState, s.Len())
	eachRow(s, func(tp *tuple.Tuple) { m[tp.ID] = rowState{tp.F, tp.Infected} })
	return m
}

// parityExtents builds two identical stores of n rows — n INT, r FLOAT —
// with staggered insertion ticks, eviction holes and a compaction pass,
// so the column walks have to cope with several segments (or several
// batches per segment, when segSize exceeds tuple.BatchRows), partial
// liveness bitmaps and sparse segments.
func parityExtents(t *testing.T, n, segSize int) (*storage.Store, *storage.Store) {
	t.Helper()
	schema := tuple.MustSchema(
		tuple.Column{Name: "n", Kind: tuple.KindInt},
		tuple.Column{Name: "r", Kind: tuple.KindFloat},
	)
	a := storage.New(schema, storage.WithSegmentSize(segSize))
	b := storage.New(schema, storage.WithSegmentSize(segSize))
	for i := 0; i < n; i++ {
		at := clock.Tick(i * 10 / n) // ten insertion cohorts for TTL ages
		attrs := []tuple.Value{tuple.Int(int64(i%9 - 2)), tuple.Float(float64(i%13-3) * 0.02)}
		ta, err := a.Insert(at, attrs)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := b.Insert(at, attrs)
		if err != nil {
			t.Fatal(err)
		}
		if ta.ID != tb.ID {
			t.Fatalf("stores diverged: ids %v vs %v", ta.ID, tb.ID)
		}
		if i%7 == 3 { // punch holes in the liveness bitmaps
			if err := a.Evict(ta.ID); err != nil {
				t.Fatal(err)
			}
			if err := b.Evict(tb.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	a.Compact()
	b.Compact()
	return a, b
}

// TestSystemScanTickParity proves every law that reads the extent as
// column slices is observationally identical to its row-at-a-time
// reference: same rotten IDs in the same order, same freshness and
// infection for every surviving tuple, across several consecutive ticks
// with the rotten evicted in between, on small segments and on segments
// of several batches.
func TestSystemScanTickParity(t *testing.T) {
	// keep selects on an attribute and on freshness, which the inner law
	// changes, so the selection must be the one before the tick. One
	// class of rows is always selected and rots; one is selected until
	// stale, then shielded while the inner law rots it, which the report
	// must drop; one is never selected.
	keep := func(tp *tuple.Tuple) (bool, error) {
		n := tp.Attrs[0].AsInt() % 3
		return n == 1 || n == 2 && tp.F > 0.5, nil
	}
	egi := func() *EGI { return NewEGI(EGIConfig{SeedsPerTick: 3, DecayRate: 0.45, AgeBias: 1}) }
	laws := []struct {
		name string
		law  func() (Fungus, rowLaw)
	}{
		{"linear", func() (Fungus, rowLaw) { return Linear{Rate: 0.21}, refLinear(0.21) }},
		{"ttl", func() (Fungus, rowLaw) { return TTL{Lifetime: 11}, refTTL(11) }},
		{"exponential", func() (Fungus, rowLaw) { return Exponential{Factor: 0.2}, refExponential(0.2) }},
		{"staggered", func() (Fungus, rowLaw) {
			return Staggered{Rate: 0.15, Phases: 3}, refStaggered(0.15, 3)
		}},
		{"valuerate", func() (Fungus, rowLaw) { return ValueRate{Column: 1, Scale: 3}, refValueRate(1, 3) }},
		{"valuerate_int", func() (Fungus, rowLaw) { return ValueRate{Column: 0, Scale: 0.1}, refValueRate(0, 0.1) }},
		{"targeted", func() (Fungus, rowLaw) {
			return Targeted{Inner: Linear{Rate: 0.45}, Only: matching(keep)}, refTargeted(Linear{Rate: 0.45}, keep)
		}},
		{"targeted_egi", func() (Fungus, rowLaw) {
			return Targeted{Inner: egi(), Only: matching(keep)}, refTargeted(egi(), keep)
		}},
	}
	for _, law := range laws {
		t.Run(law.name, func(t *testing.T) {
			for _, shape := range []struct{ n, segSize int }{{90, 8}, {3000, 1500}} {
				f, ref := law.law()
				cols, rows := parityExtents(t, shape.n, shape.segSize)
				for now := clock.Tick(10); now < 16; now++ {
					rotCols := f.Tick(now, cols, rng(), nil)
					rotRows := ref(now, rows, rng(), nil)
					if len(rotCols) != len(rotRows) {
						t.Fatalf("%d rows: tick %d: rotten count %d (columns) != %d (rows)",
							shape.n, now, len(rotCols), len(rotRows))
					}
					for i := range rotCols {
						if rotCols[i] != rotRows[i] {
							t.Fatalf("%d rows: tick %d: rotten[%d] = %v (columns) != %v (rows)",
								shape.n, now, i, rotCols[i], rotRows[i])
						}
					}
					sa, sb := stateMap(cols), stateMap(rows)
					if len(sa) != len(sb) {
						t.Fatalf("%d rows: tick %d: live count %d != %d", shape.n, now, len(sa), len(sb))
					}
					for id, st := range sa {
						if sb[id] != st {
							t.Fatalf("%d rows: tick %d: id %v state %+v (columns) != %+v (rows)",
								shape.n, now, id, st, sb[id])
						}
					}
					// Evict what rotted so later ticks exercise shrinking bitmaps.
					for _, id := range rotCols {
						if err := cols.Evict(id); err != nil {
							t.Fatal(err)
						}
						if err := rows.Evict(id); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		})
	}
}
