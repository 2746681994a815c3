package fungus

import (
	"fmt"
	"math/rand"
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

// Matcher selects tuples. It is the fungus-side twin of query
// predicates; internal/catalog adapts a query.Predicate's row matcher
// to it, and tests can use plain functions.
type Matcher interface {
	Match(tp *tuple.Tuple) (bool, error)
}

// MatcherFunc adapts a function to the Matcher interface.
type MatcherFunc func(tp *tuple.Tuple) (bool, error)

// Match implements Matcher.
func (f MatcherFunc) Match(tp *tuple.Tuple) (bool, error) { return f(tp) }

// Targeted applies an inner fungus only to tuples the matcher selects:
// the "what to decay" axis. Non-matching tuples are completely shielded
// — their freshness is restored after the inner tick, so even
// whole-extent fungi like Linear become scoped.
type Targeted struct {
	Inner Fungus
	Only  Matcher
}

// Name implements Fungus.
func (t Targeted) Name() string { return "targeted(" + t.Inner.Name() + ")" }

// Tick implements Fungus.
func (t Targeted) Tick(now clock.Tick, ext Extent, rng *rand.Rand, rotten []tuple.ID) []tuple.ID {
	// Snapshot the freshness of shielded tuples.
	type saved struct {
		id       tuple.ID
		f        tuple.Freshness
		infected bool
	}
	var shield []saved
	var matchErr error
	ext.Scan(func(tp *tuple.Tuple) bool {
		ok, err := t.Only.Match(tp)
		if err != nil {
			matchErr = err
			return false
		}
		if !ok {
			shield = append(shield, saved{tp.ID, tp.F, tp.Infected})
		}
		return true
	})
	if matchErr != nil {
		// A broken matcher must not silently decay everything; fail
		// closed by decaying nothing this tick.
		return rotten
	}
	before := len(rotten)
	rotten = t.Inner.Tick(now, ext, rng, rotten)
	// Restore the shielded tuples and drop them from the rot report.
	shielded := make(map[tuple.ID]bool, len(shield))
	for _, s := range shield {
		shielded[s.id] = true
		_ = ext.Update(s.id, func(tp *tuple.Tuple) {
			tp.F = s.f
			tp.Infected = s.infected
		})
	}
	kept := rotten[:before]
	for _, id := range rotten[before:] {
		if !shielded[id] {
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
	ext.Scan(func(tp *tuple.Tuple) bool {
		if v.Column < 0 || v.Column >= len(tp.Attrs) {
			return true
		}
		rate, ok := tp.Attrs[v.Column].Numeric()
		if !ok || rate < 0 {
			return true
		}
		tp.F = (tp.F - tuple.Freshness(rate*v.Scale)).Clamp()
		if tp.F.Rotten() {
			rotten = append(rotten, tp.ID)
		}
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
	ext.Scan(func(tp *tuple.Tuple) bool {
		if uint64(tp.ID)%s.Phases != phase {
			return true
		}
		tp.F = (tp.F - step).Clamp()
		if tp.F.Rotten() {
			rotten = append(rotten, tp.ID)
		}
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
