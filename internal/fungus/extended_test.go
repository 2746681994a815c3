package fungus

import (
	"errors"
	"testing"

	"fungusdb/internal/clock"
	"fungusdb/internal/storage"
	"fungusdb/internal/tuple"
)

// extSchema: n INT (doubles as per-tuple decay rate in ValueRate tests).
func extStore(t *testing.T, values []int64) *storage.Store {
	t.Helper()
	s := storage.New(
		tuple.MustSchema(tuple.Column{Name: "n", Kind: tuple.KindInt}),
		storage.WithSegmentSize(32),
	)
	for _, v := range values {
		if _, err := s.Insert(0, []tuple.Value{tuple.Int(v)}); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func evens(tp *tuple.Tuple) (bool, error) { return tp.Attrs[0].AsInt()%2 == 0, nil }

// rowsMatcher is a small batch matcher over a per-tuple test: it selects
// the live rows keep accepts, up to the first row keep fails on.
type rowsMatcher struct {
	keep func(*tuple.Tuple) (bool, error)
	sel  []uint64
	tp   tuple.Tuple
}

func (m *rowsMatcher) Match(b *tuple.Batch) ([]uint64, int, error) {
	m.sel = append(m.sel[:0], make([]uint64, len(b.Live))...)
	errRow, err := b.N, error(nil)
	tuple.EachSet(b.Live, func(j int) bool {
		b.ReadRow(j, &m.tp)
		ok, kerr := m.keep(&m.tp)
		if kerr != nil {
			errRow, err = j, kerr
			return false
		}
		if ok {
			m.sel[j>>6] |= 1 << uint(j&63)
		}
		return true
	})
	return m.sel, errRow, err
}

// matching is the Targeted.Only of a per-tuple test.
func matching(keep func(*tuple.Tuple) (bool, error)) func() Matcher {
	return func() Matcher { return &rowsMatcher{keep: keep} }
}

func TestTargetedShieldsNonMatching(t *testing.T) {
	s := extStore(t, []int64{0, 1, 2, 3, 4, 5})
	f := Targeted{Inner: Linear{Rate: 0.6}, Only: matching(evens)}
	r := rng()

	rotten := f.Tick(1, s, r, nil)
	if len(rotten) != 0 {
		t.Fatalf("rotted on tick 1: %v", rotten)
	}
	eachRow(s, func(tp *tuple.Tuple) {
		want := tuple.Freshness(1.0)
		if tp.Attrs[0].AsInt()%2 == 0 {
			want = 0.4
		}
		if tp.F != want {
			t.Errorf("tuple %d freshness %v, want %v", tp.ID, tp.F, want)
		}
	})

	rotten = f.Tick(2, s, r, nil)
	if len(rotten) != 3 {
		t.Fatalf("tick 2 rotted %v, want the 3 even tuples", rotten)
	}
	for _, id := range rotten {
		tp, _ := s.Get(id)
		if tp.Attrs[0].AsInt()%2 != 0 {
			t.Errorf("odd tuple %d rotted", id)
		}
	}
}

func TestTargetedWithEGIShieldForgets(t *testing.T) {
	s := extStore(t, []int64{0, 1, 2, 3, 4, 5, 6, 7})
	egi := NewEGI(EGIConfig{SeedsPerTick: 2, DecayRate: 0.9, AgeBias: 1})
	f := Targeted{Inner: egi, Only: matching(evens)}
	r := rng()
	for tick := 1; tick <= 10; tick++ {
		rotten := f.Tick(clock.Tick(tick), s, r, nil)
		for _, id := range rotten {
			tp, _ := s.Get(id)
			if tp.Attrs[0].AsInt()%2 != 0 {
				t.Fatalf("shielded odd tuple %d rotted", id)
			}
			s.Evict(id)
		}
	}
	// All odd tuples survive at full freshness.
	count := 0
	eachRow(s, func(tp *tuple.Tuple) {
		if tp.Attrs[0].AsInt()%2 != 0 {
			count++
			if tp.F != tuple.Full {
				t.Errorf("odd tuple %d decayed to %v", tp.ID, tp.F)
			}
		}
	})
	if count != 4 {
		t.Errorf("odd survivors = %d, want 4", count)
	}
}

func TestTargetedMatcherErrorFailsClosed(t *testing.T) {
	s := extStore(t, []int64{1, 2, 3})
	f := Targeted{
		Inner: Linear{Rate: 1.0},
		Only:  matching(func(*tuple.Tuple) (bool, error) { return false, errors.New("boom") }),
	}
	rotten := f.Tick(1, s, rng(), nil)
	if len(rotten) != 0 {
		t.Errorf("broken matcher rotted %v", rotten)
	}
	tp, _ := s.Get(0)
	if tp.F != tuple.Full {
		t.Errorf("broken matcher decayed to %v", tp.F)
	}
}

func TestValueRatePerTupleDecay(t *testing.T) {
	// Rates: tuple 0 decays 0.5/tick, tuple 1 decays 0.1/tick, tuple 2
	// has no valid rate and never decays.
	s := extStore(t, []int64{5, 1, -3})
	f := ValueRate{Column: 0, Scale: 0.1}
	r := rng()

	rotten := f.Tick(1, s, r, nil)
	if len(rotten) != 0 {
		t.Fatalf("tick 1 rotted %v", rotten)
	}
	tp0, _ := s.Get(0)
	tp1, _ := s.Get(1)
	tp2, _ := s.Get(2)
	if tp0.F != 0.5 || tp1.F != 0.9 || tp2.F != 1.0 {
		t.Errorf("freshness = %v, %v, %v", tp0.F, tp1.F, tp2.F)
	}
	rotten = f.Tick(2, s, r, nil)
	if len(rotten) != 1 || rotten[0] != 0 {
		t.Errorf("tick 2 rotted %v, want [0]", rotten)
	}
}

func TestValueRateBadColumnIgnored(t *testing.T) {
	s := extStore(t, []int64{1})
	f := ValueRate{Column: 9, Scale: 1}
	if rotten := f.Tick(1, s, rng(), nil); len(rotten) != 0 {
		t.Error("out-of-range column decayed something")
	}
}

func TestQuotaRotsOldestSurplus(t *testing.T) {
	s := extStore(t, []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f := Quota{MaxTuples: 6}
	rotten := f.Tick(1, s, rng(), nil)
	if len(rotten) != 4 {
		t.Fatalf("rotted %d, want 4", len(rotten))
	}
	for i, id := range rotten {
		if id != tuple.ID(i) {
			t.Errorf("rotted %v, want the oldest 0..3", rotten)
			break
		}
	}
	for _, id := range rotten {
		s.Evict(id)
	}
	// Under quota: nothing further rots.
	if rotten := f.Tick(2, s, rng(), nil); len(rotten) != 0 {
		t.Errorf("under-quota tick rotted %v", rotten)
	}
}

func TestQuotaPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Quota{}.Tick(1, extStore(t, []int64{1}), rng(), nil)
}

func TestSeasonalDutyCycle(t *testing.T) {
	s := extStore(t, []int64{1, 2})
	f := Seasonal{Inner: Linear{Rate: 0.1}, Period: 4, Active: 1}
	r := rng()
	// Over 8 ticks (ticks 0..7), only ticks 0 and 4 decay.
	for tick := clock.Tick(0); tick < 8; tick++ {
		f.Tick(tick, s, r, nil)
	}
	tp, _ := s.Get(0)
	if tp.F != 0.8 {
		t.Errorf("freshness = %v, want 0.8 (2 active ticks)", tp.F)
	}
	if f.Name() != "seasonal(linear,1/4)" {
		t.Errorf("Name = %q", f.Name())
	}
}

func TestSeasonalPanicsOnZeroPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Seasonal{Inner: Null{}}.Tick(1, extStore(t, []int64{1}), rng(), nil)
}

func TestStaggeredMatchesLinearLongRun(t *testing.T) {
	sA := extStore(t, make([]int64, 40))
	sB := extStore(t, make([]int64, 40))
	linear := Linear{Rate: 0.05}
	staggered := Staggered{Rate: 0.05, Phases: 4}
	r := rng()
	// After any multiple of Phases ticks the two extents agree exactly.
	for tick := clock.Tick(0); tick < 12; tick++ {
		linear.Tick(tick, sA, r, nil)
		staggered.Tick(tick, sB, r, nil)
	}
	eachRow(sA, func(tpA *tuple.Tuple) {
		tpB, err := sB.Get(tpA.ID)
		if err != nil {
			t.Errorf("tuple %d missing in staggered extent", tpA.ID)
			return
		}
		if d := float64(tpA.F - tpB.F); d > 1e-9 || d < -1e-9 {
			t.Errorf("tuple %d: linear %v vs staggered %v", tpA.ID, tpA.F, tpB.F)
		}
	})
}

func TestStaggeredVisitsEachTupleOncePerCycle(t *testing.T) {
	s := extStore(t, make([]int64, 8))
	f := Staggered{Rate: 0.1, Phases: 4}
	r := rng()
	f.Tick(0, s, r, nil) // phase 0 touches IDs 0 and 4
	touched := 0
	eachRow(s, func(tp *tuple.Tuple) {
		if tp.F < 1 {
			touched++
			if uint64(tp.ID)%4 != 0 {
				t.Errorf("tuple %d touched in phase 0", tp.ID)
			}
		}
	})
	if touched != 2 {
		t.Errorf("touched %d tuples, want 2", touched)
	}
}

func TestStaggeredPanicsOnZeroPhases(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Staggered{Rate: 0.1}.Tick(1, extStore(t, []int64{1}), rng(), nil)
}

func TestExtendedFungusNames(t *testing.T) {
	cases := map[string]Fungus{
		"targeted(linear)": Targeted{Inner: Linear{Rate: 0.1}, Only: matching(evens)},
		"valuerate(col=0)": ValueRate{Column: 0},
		"quota(10)":        Quota{MaxTuples: 10},
		"staggered(4)":     Staggered{Rate: 0.1, Phases: 4},
	}
	for want, f := range cases {
		if got := f.Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
	if len(Names()) == 0 {
		t.Error("Names() empty")
	}
}
