package fungus

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"fungusdb/internal/clock"
	"fungusdb/internal/tuple"
)

// This file implements the paper's §2 remark that "many more data fungi
// can be considered, based on their rate of decay, what to decay, how
// to decay":
//
//   - Targeted decays only tuples selected by a predicate (what).
//   - ValueRate reads each tuple's decay rate off one of its own
//     attributes (rate, per tuple).
//   - Quota rots the oldest tuples whenever the extent exceeds a bound
//     (how: pressure-driven instead of clock-driven).
//   - Seasonal gates another fungus onto a duty cycle (when).

// Matcher selects the rows of a column batch: it returns the selection
// bitmap of matching live rows, the first erroring row (b.N when none)
// and its error. It is the signature of *query.BatchMatcher, which
// internal/catalog hands to Targeted; tests use small matchers of
// their own. A matcher carries scratch state and serves one walk.
type Matcher interface {
	Match(b *tuple.Batch) (sel []uint64, errRow int, err error)
}

// Targeted applies an inner fungus only to tuples the matcher selects:
// the "what to decay" axis. Non-matching tuples are completely shielded
// — their freshness and infection are restored after the inner tick, so
// even whole-extent fungi like Linear become scoped.
type Targeted struct {
	Inner Fungus
	// Only builds the matcher of one tick. Every tick, and so every
	// shard of a parallel table tick, runs its own.
	Only func() Matcher
}

// Name implements Fungus.
func (t Targeted) Name() string { return "targeted(" + t.Inner.Name() + ")" }

// shielded is the state of one shielded tuple as it was before the
// inner tick.
type shielded struct {
	id       tuple.ID
	f        float64
	infected bool
}

// Tick implements Fungus in two walks over the batches around the inner
// tick. The first runs the matcher once per batch and saves every
// shielded row — live and not selected — with its freshness and
// infection; the second writes those back. The inner law neither
// inserts nor evicts, so both walks meet the same batches in the same
// order.
func (t Targeted) Tick(now clock.Tick, ext Extent, rng *rand.Rand, rotten []tuple.ID) []tuple.ID {
	m := t.Only()
	var masks []uint64   // each batch's shielded rows, batch after batch
	var saved []shielded // in ID order
	var matchErr error
	ext.EachBatch(func(b *tuple.Batch) bool {
		sel, _, err := m.Match(b)
		if err != nil {
			matchErr = err
			return false
		}
		for w, live := range b.Live {
			masks = append(masks, live&^sel[w])
		}
		eachLive(masks[len(masks)-len(b.Live):], func(j int) {
			saved = append(saved, shielded{b.IDs[j], b.Fs[j], b.Inf[j]})
		})
		return true
	})
	if matchErr != nil {
		// A broken matcher must not silently decay everything; fail
		// closed by decaying nothing this tick.
		return rotten
	}
	before := len(rotten)
	rotten = t.Inner.Tick(now, ext, rng, rotten)
	if len(saved) == 0 {
		return rotten
	}
	k := 0
	ext.EachBatch(func(b *tuple.Batch) bool {
		eachLive(masks[:len(b.Live)], func(j int) {
			b.Fs[j], b.Inf[j] = saved[k].f, saved[k].infected
			k++
		})
		masks = masks[len(b.Live):]
		return true
	})
	// Drop the shielded tuples from the rot report.
	kept := rotten[:before]
	for _, id := range rotten[before:] {
		_, hit := slices.BinarySearchFunc(saved, id, func(s shielded, id tuple.ID) int { return cmp.Compare(s.id, id) })
		if !hit {
			kept = append(kept, id)
		} else if egi, ok := t.Inner.(*EGI); ok {
			egi.Forget(id)
		}
	}
	return kept
}

// ValueRate decays every tuple by a rate read from one of its own
// numeric attributes (scaled by Scale): data declares its own
// perishability. Columns outside [0, ∞) clamp to 0.
type ValueRate struct {
	Column int     // attribute index holding the rate
	Scale  float64 // multiplier applied to the column value
}

// Name implements Fungus.
func (v ValueRate) Name() string { return fmt.Sprintf("valuerate(col=%d)", v.Column) }

// Tick implements Fungus.
func (v ValueRate) Tick(_ clock.Tick, ext Extent, _ *rand.Rand, rotten []tuple.ID) []tuple.ID {
	ext.EachBatch(func(b *tuple.Batch) bool {
		if v.Column < 0 || v.Column >= len(b.Cols) {
			return false
		}
		eachLive(b.Live, func(j int) {
			rate, ok := b.Cols[v.Column].Value(j).Numeric()
			if !ok || rate < 0 {
				return
			}
			nf := (tuple.Freshness(b.Fs[j]) - tuple.Freshness(rate*v.Scale)).Clamp()
			b.Fs[j] = float64(nf)
			if nf.Rotten() {
				rotten = append(rotten, b.IDs[j])
			}
		})
		return true
	})
	return rotten
}

// Quota bounds the extent: whenever Len exceeds MaxTuples, the oldest
// surplus tuples rot immediately. It is "how to decay" driven by
// storage pressure rather than age — the fridge with a hard shelf.
type Quota struct {
	MaxTuples int
}

// Name implements Fungus.
func (q Quota) Name() string { return fmt.Sprintf("quota(%d)", q.MaxTuples) }

// Tick implements Fungus.
func (q Quota) Tick(_ clock.Tick, ext Extent, _ *rand.Rand, rotten []tuple.ID) []tuple.ID {
	if q.MaxTuples <= 0 {
		panic("fungus: quota must be positive")
	}
	surplus := ext.Len() - q.MaxTuples
	if surplus <= 0 {
		return rotten
	}
	id, ok := ext.FirstLive()
	for ; ok && surplus > 0; surplus-- {
		_ = ext.Update(id, func(tp *tuple.Tuple) { tp.F = 0 })
		rotten = append(rotten, id)
		id, ok = ext.NextLive(id)
	}
	return rotten
}

// Seasonal gates an inner fungus onto a duty cycle: it runs for Active
// ticks out of every Period. Decay that happens "at night" — or rot
// that pauses during the harvest — without changing the inner law.
type Seasonal struct {
	Inner  Fungus
	Period uint64 // full cycle length in ticks; must be positive
	Active uint64 // leading ticks of each cycle during which Inner runs
}

// Name implements Fungus.
func (s Seasonal) Name() string {
	return fmt.Sprintf("seasonal(%s,%d/%d)", s.Inner.Name(), s.Active, s.Period)
}

// Tick implements Fungus.
func (s Seasonal) Tick(now clock.Tick, ext Extent, rng *rand.Rand, rotten []tuple.ID) []tuple.ID {
	if s.Period == 0 {
		panic("fungus: seasonal period must be positive")
	}
	if uint64(now)%s.Period >= s.Active {
		return rotten
	}
	return s.Inner.Tick(now, ext, rng, rotten)
}

// Touch implements Refresher by delegating when the inner fungus
// supports it.
func (s Seasonal) Touch(now clock.Tick, ext Extent, id tuple.ID) {
	if r, ok := s.Inner.(Refresher); ok {
		r.Touch(now, ext, id)
	}
}

// Staggered splits the extent into Phases groups by ID and decays one
// group per tick round-robin, spreading whole-extent scan cost across
// the clock — the amortised variant of Linear for very large extents.
type Staggered struct {
	Rate   float64
	Phases uint64
}

// Name implements Fungus.
func (s Staggered) Name() string { return fmt.Sprintf("staggered(%d)", s.Phases) }

// Tick implements Fungus. Each tuple is visited once every Phases
// ticks and loses Rate*Phases freshness then, so the long-run decay
// rate matches Linear{Rate} while per-tick work drops by Phases.
func (s Staggered) Tick(now clock.Tick, ext Extent, _ *rand.Rand, rotten []tuple.ID) []tuple.ID {
	if s.Phases == 0 {
		panic("fungus: staggered phases must be positive")
	}
	phase := uint64(now) % s.Phases
	step := tuple.Freshness(s.Rate * float64(s.Phases))
	ext.ScanSystem(func(ids []tuple.ID, _ []int64, fs []float64, live []uint64) bool {
		eachLive(live, func(j int) {
			if uint64(ids[j])%s.Phases != phase {
				return
			}
			nf := (tuple.Freshness(fs[j]) - step).Clamp()
			fs[j] = float64(nf)
			if nf.Rotten() {
				rotten = append(rotten, ids[j])
			}
		})
		return true
	})
	return rotten
}

// Names returns the registry of built-in fungus constructors for CLI
// and catalog use, keyed by Name() prefix, sorted.
func Names() []string {
	names := []string{"none", "ttl", "linear", "exponential", "egi", "quota", "staggered"}
	sort.Strings(names)
	return names
}
