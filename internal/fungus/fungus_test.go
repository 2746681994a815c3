package fungus

import (
	"math"
	"math/rand"
	"testing"

	"fungusdb/internal/clock"
	"fungusdb/internal/storage"
	"fungusdb/internal/tuple"
)

// newExtent builds a store with n tuples all inserted at the given tick.
func newExtent(t *testing.T, n int, at clock.Tick) *storage.Store {
	t.Helper()
	s := storage.New(tuple.MustSchema(tuple.Column{Name: "n", Kind: tuple.KindInt}), storage.WithSegmentSize(64))
	for i := 0; i < n; i++ {
		if _, err := s.Insert(at, []tuple.Value{tuple.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func rng() *rand.Rand { return rand.New(rand.NewSource(42)) }

func TestNullNeverRots(t *testing.T) {
	s := newExtent(t, 100, 0)
	var f Null
	for tick := clock.Tick(1); tick < 100; tick++ {
		if rotten := f.Tick(tick, s, rng(), nil); len(rotten) != 0 {
			t.Fatalf("Null rotted %d tuples at %v", len(rotten), tick)
		}
	}
	minF := tuple.Full
	eachRow(s, func(tp *tuple.Tuple) {
		if tp.F < minF {
			minF = tp.F
		}
	})
	if minF != tuple.Full {
		t.Errorf("Null decayed freshness to %v", minF)
	}
}

func TestTTLLinearFreshnessAndCliff(t *testing.T) {
	s := newExtent(t, 10, 0)
	f := TTL{Lifetime: 10}

	rotten := f.Tick(5, s, rng(), nil)
	if len(rotten) != 0 {
		t.Fatalf("rotted at half-life: %v", rotten)
	}
	tp, _ := s.Get(0)
	if math.Abs(float64(tp.F)-0.5) > 1e-9 {
		t.Errorf("freshness at age 5 = %v, want 0.5", tp.F)
	}

	rotten = f.Tick(10, s, rng(), nil)
	if len(rotten) != 10 {
		t.Fatalf("at lifetime rotted %d, want all 10", len(rotten))
	}
	tp, _ = s.Get(0)
	if tp.F != 0 {
		t.Errorf("rotten tuple freshness = %v, want 0", tp.F)
	}
}

func TestTTLMixedAges(t *testing.T) {
	s := newExtent(t, 5, 0)
	for i := 0; i < 5; i++ {
		if _, err := s.Insert(8, []tuple.Value{tuple.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	f := TTL{Lifetime: 10}
	rotten := f.Tick(10, s, rng(), nil)
	if len(rotten) != 5 {
		t.Fatalf("rotted %d, want 5 (only the old batch)", len(rotten))
	}
	for _, id := range rotten {
		if id >= 5 {
			t.Errorf("young tuple %d rotted", id)
		}
	}
}

func TestTTLZeroLifetimePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("TTL{0} did not panic")
		}
	}()
	TTL{}.Tick(1, newExtent(t, 1, 0), rng(), nil)
}

func TestLinearDecaysToRot(t *testing.T) {
	s := newExtent(t, 4, 0)
	f := Linear{Rate: 0.4}
	if rotten := f.Tick(1, s, rng(), nil); len(rotten) != 0 {
		t.Fatal("rotted after one tick")
	}
	if rotten := f.Tick(2, s, rng(), nil); len(rotten) != 0 {
		t.Fatal("rotted after two ticks")
	}
	rotten := f.Tick(3, s, rng(), nil)
	if len(rotten) != 4 {
		t.Fatalf("after 3 ticks rotted %d, want 4", len(rotten))
	}
}

func TestExponentialReachesThreshold(t *testing.T) {
	s := newExtent(t, 1, 0)
	f := Exponential{Factor: 0.5}
	var rotten []tuple.ID
	ticks := 0
	for len(rotten) == 0 && ticks < 64 {
		ticks++
		rotten = f.Tick(clock.Tick(ticks), s, rng(), nil)
	}
	// 0.5^10 ≈ 0.00098 < 1e-3, so rot on the 10th tick.
	if ticks != 10 {
		t.Errorf("rotted after %d ticks, want 10", ticks)
	}
	tp, _ := s.Get(0)
	if tp.F != 0 {
		t.Errorf("rotten freshness = %v", tp.F)
	}
}

func TestHalfLife(t *testing.T) {
	f := HalfLife(7)
	got := math.Pow(f.Factor, 7)
	if math.Abs(got-0.5) > 1e-12 {
		t.Errorf("factor^7 = %v, want 0.5", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("HalfLife(0) did not panic")
		}
	}()
	HalfLife(0)
}

func TestCompositeMergesWithoutDuplicates(t *testing.T) {
	s := newExtent(t, 3, 0)
	c := Composite{Members: []Fungus{Linear{Rate: 1.0}, Linear{Rate: 1.0}}}
	rotten := c.Tick(1, s, rng(), nil)
	if len(rotten) != 3 {
		t.Fatalf("composite rotted %d, want 3 (no duplicates)", len(rotten))
	}
	if c.Name() != "composite(linear+linear)" {
		t.Errorf("Name() = %q", c.Name())
	}
}

func TestAccessRefreshTouch(t *testing.T) {
	s := newExtent(t, 2, 0)
	inner := NewEGI(EGIConfig{SeedsPerTick: 1, DecayRate: 0.3, AgeBias: 2})
	a := AccessRefresh{Inner: inner}

	// Decay both tuples a bit and infect them via EGI ticks.
	r := rng()
	for i := 1; i <= 2; i++ {
		a.Tick(clock.Tick(i), s, r, nil)
	}
	if inner.InfectedCount() == 0 {
		t.Fatal("EGI infected nothing in two ticks")
	}
	var victim tuple.ID
	found := false
	eachRow(s, func(tp *tuple.Tuple) {
		if tp.Infected && !found {
			victim, found = tp.ID, true
		}
	})
	a.Touch(3, s, victim)
	got, _ := s.Get(victim)
	if got.F != tuple.Full || got.Infected {
		t.Errorf("touched tuple not refreshed: %v", got)
	}
	if inner.infected[victim] {
		t.Error("EGI still tracks touched tuple")
	}
	if a.Name() != "refresh(egi)" {
		t.Errorf("Name() = %q", a.Name())
	}
}

func TestEGISpotGrowsBidirectionally(t *testing.T) {
	s := newExtent(t, 101, 0)
	e := NewEGI(EGIConfig{SeedsPerTick: 0, DecayRate: 0.05}) // no random seeds
	// Plant one deterministic seed in the middle.
	e.Seed(50)

	r := rng()
	e.Tick(1, s, r, nil)
	// After one tick the seed plus both direct neighbours are infected.
	for _, id := range []tuple.ID{49, 50, 51} {
		tp, _ := s.Get(id)
		if !tp.Infected {
			t.Errorf("tuple %d not infected after 1 tick", id)
		}
	}
	tp, _ := s.Get(48)
	if tp.Infected {
		t.Error("infection jumped two tuples in one tick")
	}

	// After k ticks the spot spans [50-k, 50+k].
	for tick := 2; tick <= 5; tick++ {
		e.Tick(clock.Tick(tick), s, r, nil)
	}
	for id := tuple.ID(45); id <= 55; id++ {
		tp, _ := s.Get(id)
		if !tp.Infected {
			t.Errorf("tuple %d not infected after 5 ticks", id)
		}
	}
	tp, _ = s.Get(44)
	if tp.Infected {
		t.Error("spot wider than 5 after 5 ticks")
	}
	tp, _ = s.Get(56)
	if tp.Infected {
		t.Error("spot wider than 5 after 5 ticks (right)")
	}

	// The centre has lost the most freshness; edges the least.
	centre, _ := s.Get(50)
	edge, _ := s.Get(45)
	if centre.F >= edge.F {
		t.Errorf("centre freshness %v >= edge %v", centre.F, edge.F)
	}
}

func TestEGIRotAndEviction(t *testing.T) {
	s := newExtent(t, 20, 0)
	e := NewEGI(EGIConfig{SeedsPerTick: 0, DecayRate: 0.5})
	e.Seed(10)
	r := rng()

	rotten := e.Tick(1, s, r, nil)
	if len(rotten) != 0 {
		t.Fatalf("rotted on first tick: %v", rotten)
	}
	rotten = e.Tick(2, s, r, nil)
	// Tuple 10 hit 0 on tick 2 (2 × 0.5); neighbours 9 and 11 got their
	// second hit too (infected on tick 1 with immediate decay).
	wantRotten := map[tuple.ID]bool{9: true, 10: true, 11: true}
	if len(rotten) != 3 {
		t.Fatalf("tick 2 rotted %v, want 9,10,11", rotten)
	}
	for _, id := range rotten {
		if !wantRotten[id] {
			t.Errorf("unexpected rotten id %d", id)
		}
	}
	// Engine evicts; the fungus keeps eating outward afterwards.
	for _, id := range rotten {
		if err := s.Evict(id); err != nil {
			t.Fatal(err)
		}
	}
	rotten = e.Tick(3, s, r, nil)
	for _, id := range rotten {
		if id != 8 && id != 12 {
			t.Errorf("tick 3 rotted %d, want only 8/12", id)
		}
	}
	if s.Len() != 17 {
		t.Errorf("Len = %d, want 17", s.Len())
	}
}

func TestEGIPrunesConsumedTuples(t *testing.T) {
	s := newExtent(t, 10, 0)
	e := NewEGI(EGIConfig{SeedsPerTick: 0, DecayRate: 0.1})
	e.Seed(5)
	// The tuple is consumed by a query before the next tick.
	if err := s.Evict(5); err != nil {
		t.Fatal(err)
	}
	e.Tick(1, s, rng(), nil)
	if e.infected[5] {
		t.Error("EGI still tracks consumed tuple after tick")
	}
	// Note: the infection died with the tuple — no spread happened.
	count := 0
	eachRow(s, func(tp *tuple.Tuple) {
		if tp.Infected {
			count++
		}
	})
	if count != 0 {
		t.Errorf("%d tuples infected after consumed seed", count)
	}
}

func TestEGISeedingIsAgeBiased(t *testing.T) {
	const n = 1000
	s := newExtent(t, n, 0)
	e := NewEGI(EGIConfig{SeedsPerTick: 1, DecayRate: 0, AgeBias: 2})
	r := rng()
	oldHalf, trials := 0, 2000
	for i := 0; i < trials; i++ {
		id, ok := e.pickSeed(s, r)
		if !ok {
			t.Fatal("pickSeed failed")
		}
		if id < n/2 {
			oldHalf++
		}
	}
	// With u^2 bias, P(older half) = sqrt(0.5) ≈ 0.707.
	frac := float64(oldHalf) / float64(trials)
	if frac < 0.65 || frac > 0.77 {
		t.Errorf("old-half seed fraction = %.3f, want ≈ 0.707", frac)
	}
}

func TestEGISeedOnEmptyAndSingleton(t *testing.T) {
	s := newExtent(t, 0, 0)
	e := NewEGI(DefaultEGIConfig())
	if rotten := e.Tick(1, s, rng(), nil); len(rotten) != 0 {
		t.Error("rot on empty extent")
	}
	s2 := newExtent(t, 1, 0)
	e2 := NewEGI(EGIConfig{SeedsPerTick: 1, DecayRate: 0.6})
	r := rng()
	e2.Tick(1, s2, r, nil)
	rotten := e2.Tick(2, s2, r, nil)
	if len(rotten) != 1 || rotten[0] != 0 {
		t.Errorf("singleton rot = %v, want [0]", rotten)
	}
}

func TestEGIDeterministicGivenSeed(t *testing.T) {
	run := func() []tuple.ID {
		s := newExtent(t, 200, 0)
		e := NewEGI(EGIConfig{SeedsPerTick: 2, DecayRate: 0.2})
		r := rand.New(rand.NewSource(7))
		var all []tuple.ID
		for tick := 1; tick <= 20; tick++ {
			rotten := e.Tick(clock.Tick(tick), s, r, nil)
			for _, id := range rotten {
				s.Evict(id)
			}
			all = append(all, rotten...)
		}
		return all
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("non-deterministic rot counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic rot order at %d: %v vs %v", i, a[i], b[i])
		}
	}
	if len(a) == 0 {
		t.Error("20 ticks of EGI rotted nothing")
	}
}

func TestEGIEatsWholeExtentEventually(t *testing.T) {
	// DESIGN.md E6: "The extent ... decays until it has been completely
	// disappeared" — the first natural law, end to end.
	s := newExtent(t, 300, 0)
	e := NewEGI(EGIConfig{SeedsPerTick: 3, DecayRate: 0.25})
	r := rng()
	for tick := 1; tick <= 5000 && s.Len() > 0; tick++ {
		for _, id := range e.Tick(clock.Tick(tick), s, r, nil) {
			s.Evict(id)
		}
	}
	if s.Len() != 0 {
		t.Errorf("extent not extinct after 5000 ticks: %d live", s.Len())
	}
}

func TestNewEGIDefaultsAndValidation(t *testing.T) {
	e := NewEGI(DefaultEGIConfig())
	if e.seedsPerTick != 1 || e.decayRate != 0.1 || e.ageBias != 2 {
		t.Errorf("defaults = %+v", e)
	}
	if NewEGI(EGIConfig{}).ageBias != 2 {
		t.Error("AgeBias zero should default to 2")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative rate did not panic")
		}
	}()
	NewEGI(EGIConfig{DecayRate: -1})
}

func TestFungusNames(t *testing.T) {
	cases := map[string]Fungus{
		"none":        Null{},
		"ttl":         TTL{Lifetime: 1},
		"linear":      Linear{Rate: 0.1},
		"exponential": Exponential{Factor: 0.9},
		"egi":         NewEGI(DefaultEGIConfig()),
	}
	for want, f := range cases {
		if got := f.Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
}
