// Package fungus implements the paper's first natural law: "the extent
// of table R decays with a periodic clock of T seconds using a data
// fungus F until it has been completely disappeared".
//
// A Fungus is a pluggable decay strategy applied once per clock tick.
// Fungi mutate tuple freshness in place through the Extent interface and
// report which tuples rotted (freshness reached zero) so the engine can
// distill them into summaries "for later consumption, or inspect them
// once before removal" (paper §3) before the extent drops them.
//
// The package ships the operators the paper names or implies:
//
//   - Null: no decay (the baseline "fridge").
//   - TTL: the "old-fashioned decay function ... retention times".
//   - Linear, Exponential, HalfLife: smooth whole-extent freshness loss.
//   - EGI (Evict Grouped Individuals): the paper's concrete fungus —
//     age-biased seeding plus bi-directional neighbour infection,
//     producing growing rot spots (the "Blue Cheese" effect).
//   - AccessRefresh: a decorator giving queried tuples their freshness
//     back, modelling "data being taken care of by its owner".
//   - Composite: several fungi applied in sequence.
//
// All fungi are deterministic given the *rand.Rand passed to Tick.
package fungus

import (
	"math"
	"math/bits"
	"math/rand"

	"fungusdb/internal/clock"
	"fungusdb/internal/tuple"
)

// Extent is the view of a relation a fungus may touch. *storage.Store
// implements it. A fungus reads the extent only as column slices: the
// system columns of whole segments through ScanSystem, or batches of
// every column through EachBatch. Single tuples are addressed by ID, for
// the neighbour walk and Update. Fungi must not insert or evict;
// eviction of rotten tuples is the engine's job so it can distill
// first. Every write touches freshness and infection state only:
// attributes are immutable once inserted, which is what lets the
// storage layer's zone maps summarise them without ever being
// invalidated.
type Extent interface {
	Len() int
	Update(id tuple.ID, fn func(*tuple.Tuple)) error
	PrevLive(id tuple.ID) (tuple.ID, bool)
	NextLive(id tuple.ID) (tuple.ID, bool)
	FirstLive() (tuple.ID, bool)
	LastLive() (tuple.ID, bool)
	// ScanSystem hands fn, segment by segment in ID order, the row IDs,
	// insertion ticks, freshness and liveness bitmap of every row. fn
	// may write fs, which aliases segment memory, and nothing else. It
	// is the walk of laws that read no attribute.
	ScanSystem(fn func(ids []tuple.ID, ts []int64, fs []float64, live []uint64) bool)
	// EachBatch hands fn the live rows as column batches in ID order.
	// fn may write b.Fs and b.Inf, which alias segment memory, and
	// nothing else. It is the walk of laws that read attributes.
	EachBatch(fn func(b *tuple.Batch) bool)
}

// Fungus is one decay strategy. Implementations may keep per-extent
// state (EGI tracks its infection front) and are not safe for concurrent
// use; the engine serialises Tick with all other table operations.
type Fungus interface {
	// Name identifies the fungus in reports and benchmarks.
	Name() string
	// Tick applies one decay cycle at logical time now and appends the
	// IDs of tuples whose freshness reached zero to rotten, returning
	// the extended slice. Rotten tuples are left in the extent (with
	// freshness clamped to 0) for the engine to distill and evict.
	Tick(now clock.Tick, ext Extent, rng *rand.Rand, rotten []tuple.ID) []tuple.ID
}

// eachLive walks the set bits of a row bitmap — a liveness bitmap or a
// selection — calling fn with each row index.
func eachLive(live []uint64, fn func(j int)) {
	for w, m := range live {
		base := w << 6
		for m != 0 {
			fn(base + bits.TrailingZeros64(m))
			m &= m - 1
		}
	}
}

// Refresher is implemented by fungi that restore freshness when a tuple
// is accessed. The engine calls Touch for every tuple a query returns
// when the table is configured with touch-on-read.
type Refresher interface {
	Touch(now clock.Tick, ext Extent, id tuple.ID)
}

// Null never decays anything: the unbounded "fridge" baseline from the
// paper's motivation.
type Null struct{}

// Name implements Fungus.
func (Null) Name() string { return "none" }

// Tick implements Fungus; it does nothing.
func (Null) Tick(_ clock.Tick, _ Extent, _ *rand.Rand, rotten []tuple.ID) []tuple.ID {
	return rotten
}

// TTL is the retention-time fungus: a tuple's freshness falls linearly
// with age and hits zero exactly at Lifetime ticks after insertion, at
// which point it rots. This is the paper's "old-fashioned decay
// function F ... consider retention times, where after the data will be
// discarded".
type TTL struct {
	Lifetime uint64 // ticks a tuple lives; must be positive
}

// Name implements Fungus.
func (f TTL) Name() string { return "ttl" }

// Tick implements Fungus.
func (f TTL) Tick(now clock.Tick, ext Extent, _ *rand.Rand, rotten []tuple.ID) []tuple.ID {
	if f.Lifetime == 0 {
		panic("fungus: TTL lifetime must be positive")
	}
	ext.ScanSystem(func(ids []tuple.ID, ts []int64, fs []float64, live []uint64) bool {
		eachLive(live, func(j int) {
			age := uint64(now - clock.Tick(ts[j]))
			if age >= f.Lifetime {
				fs[j] = 0
				rotten = append(rotten, ids[j])
				return
			}
			fs[j] = 1 - float64(age)/float64(f.Lifetime)
		})
		return true
	})
	return rotten
}

// Linear subtracts Rate freshness from every tuple each tick.
type Linear struct {
	Rate float64 // freshness lost per tick, in (0, 1]
}

// Name implements Fungus.
func (f Linear) Name() string { return "linear" }

// Tick implements Fungus.
func (f Linear) Tick(_ clock.Tick, ext Extent, _ *rand.Rand, rotten []tuple.ID) []tuple.ID {
	rate := tuple.Freshness(f.Rate)
	ext.ScanSystem(func(ids []tuple.ID, _ []int64, fs []float64, live []uint64) bool {
		eachLive(live, func(j int) {
			nf := (tuple.Freshness(fs[j]) - rate).Clamp()
			fs[j] = float64(nf)
			if nf.Rotten() {
				rotten = append(rotten, ids[j])
			}
		})
		return true
	})
	return rotten
}

// rotThreshold is the freshness below which multiplicative fungi declare
// a tuple rotten; a pure exponential never reaches zero.
const rotThreshold = 1e-3

// Exponential multiplies every tuple's freshness by Factor each tick.
// Freshness below a small threshold counts as rotten.
type Exponential struct {
	Factor float64 // per-tick survival factor, in (0, 1)
}

// Name implements Fungus.
func (f Exponential) Name() string { return "exponential" }

// Tick implements Fungus.
func (f Exponential) Tick(_ clock.Tick, ext Extent, _ *rand.Rand, rotten []tuple.ID) []tuple.ID {
	ext.ScanSystem(func(ids []tuple.ID, _ []int64, fs []float64, live []uint64) bool {
		eachLive(live, func(j int) {
			fs[j] *= f.Factor
			if fs[j] < rotThreshold {
				fs[j] = 0
				rotten = append(rotten, ids[j])
			}
		})
		return true
	})
	return rotten
}

// HalfLife is an Exponential parameterised by the number of ticks after
// which freshness halves.
func HalfLife(ticks float64) Exponential {
	if ticks <= 0 {
		panic("fungus: half-life must be positive")
	}
	// factor^ticks = 1/2  =>  factor = 2^(-1/ticks)
	return Exponential{Factor: math.Pow(2, -1/ticks)}
}

// Composite applies each member fungus in order every tick. A tuple
// rotted by an earlier member is still visible (freshness 0) to later
// members, but is reported only once.
type Composite struct {
	Members []Fungus
}

// Name implements Fungus.
func (c Composite) Name() string {
	name := "composite("
	for i, m := range c.Members {
		if i > 0 {
			name += "+"
		}
		name += m.Name()
	}
	return name + ")"
}

// Tick implements Fungus. The dedup set is allocated only once a member
// actually rots something — the common all-fresh tick allocates nothing.
func (c Composite) Tick(now clock.Tick, ext Extent, rng *rand.Rand, rotten []tuple.ID) []tuple.ID {
	var seen map[tuple.ID]bool
	ensureSeen := func() {
		if seen == nil {
			seen = make(map[tuple.ID]bool, len(rotten))
			for _, id := range rotten {
				seen[id] = true
			}
		}
	}
	if len(rotten) > 0 {
		ensureSeen()
	}
	var local []tuple.ID
	for _, m := range c.Members {
		local = m.Tick(now, ext, rng, local[:0])
		if len(local) == 0 {
			continue
		}
		ensureSeen()
		for _, id := range local {
			if !seen[id] {
				seen[id] = true
				rotten = append(rotten, id)
			}
		}
	}
	return rotten
}

// Touch implements Refresher by delegating to every member that
// supports it.
func (c Composite) Touch(now clock.Tick, ext Extent, id tuple.ID) {
	for _, m := range c.Members {
		if r, ok := m.(Refresher); ok {
			r.Touch(now, ext, id)
		}
	}
}

// AccessRefresh decorates another fungus: tuples touched by queries get
// their freshness restored to full and any infection cleared. It models
// the paper's remark that rot removes ranges "when not being taken care
// of by its owner" — owners who read their data keep it alive.
type AccessRefresh struct {
	Inner Fungus
}

// Name implements Fungus.
func (a AccessRefresh) Name() string { return "refresh(" + a.Inner.Name() + ")" }

// Tick implements Fungus by delegating to the inner fungus.
func (a AccessRefresh) Tick(now clock.Tick, ext Extent, rng *rand.Rand, rotten []tuple.ID) []tuple.ID {
	return a.Inner.Tick(now, ext, rng, rotten)
}

// Touch implements Refresher: full freshness, infection cleared, and the
// inner fungus forgets the tuple if it tracks infection state.
func (a AccessRefresh) Touch(now clock.Tick, ext Extent, id tuple.ID) {
	_ = ext.Update(id, func(tp *tuple.Tuple) {
		tp.F = tuple.Full
		tp.Infected = false
	})
	if egi, ok := a.Inner.(*EGI); ok {
		egi.Forget(id)
	}
	if r, ok := a.Inner.(Refresher); ok {
		r.Touch(now, ext, id)
	}
}
