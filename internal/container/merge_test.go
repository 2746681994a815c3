package container

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fungusdb/internal/clock"
	"fungusdb/internal/tuple"
)

func fillDigest(t *testing.T, d *Digest, lo, hi int, tick clock.Tick) {
	t.Helper()
	for i := lo; i < hi; i++ {
		tp := tuple.New(tuple.ID(i), tick, []tuple.Value{
			tuple.String_(fmt.Sprintf("dev-%d", i%10)),
			tuple.Float(float64(i)),
			tuple.Int(int64(i)),
			tuple.Bool(i%2 == 0),
		})
		tp.F = 0.5
		if err := d.Absorb(&tp); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDigestMergeExactParts(t *testing.T) {
	a := newDigest(t)
	b := newDigest(t)
	fillDigest(t, a, 0, 500, 10)
	fillDigest(t, b, 500, 1000, 20)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Count() != 1000 {
		t.Errorf("Count = %d", a.Count())
	}
	sum, _ := a.Sum("temp")
	if sum != 499500 { // 0+1+...+999
		t.Errorf("Sum = %v", sum)
	}
	lo, hi := a.TickRange()
	if lo != 10 || hi != 20 {
		t.Errorf("TickRange = %v..%v", lo, hi)
	}
	if a.MeanFreshness() != 0.5 {
		t.Errorf("MeanFreshness = %v", a.MeanFreshness())
	}
	// NDV(device): both halves share the same 10 devices.
	ndv, _ := a.NDV("device")
	if ndv < 9 || ndv > 11 {
		t.Errorf("NDV = %d, want ≈10", ndv)
	}
	// NDV(n): all 1000 distinct.
	ndv, _ = a.NDV("n")
	if math.Abs(float64(ndv)-1000) > 60 {
		t.Errorf("NDV(n) = %d, want ≈1000", ndv)
	}
	// Membership survives the merge from both sides.
	for _, probe := range []int64{3, 700} {
		got, _ := a.MayContain("n", tuple.Int(probe))
		if !got {
			t.Errorf("merged bloom lost %d", probe)
		}
	}
}

func TestDigestMergeQuantilesApproximate(t *testing.T) {
	a := newDigest(t)
	b := newDigest(t)
	fillDigest(t, a, 0, 500, 1)
	fillDigest(t, b, 500, 1000, 1)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	med, _ := a.Quantile("temp", 0.5)
	if math.Abs(med-500) > 60 {
		t.Errorf("merged median = %v, want ≈500", med)
	}
}

func TestDigestMergeHeavyHitters(t *testing.T) {
	a := newDigest(t)
	b := newDigest(t)
	// "dev-0" is hot in both halves (i%10==0).
	fillDigest(t, a, 0, 300, 1)
	fillDigest(t, b, 300, 600, 1)
	a.Merge(b)
	top, err := a.HeavyHitters("device", 10)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range top {
		if e.Item == "dev-0" && e.Count >= 60 {
			found = true
		}
	}
	if !found {
		t.Errorf("dev-0 missing from merged top: %v", top)
	}
}

func TestDigestMergeMismatch(t *testing.T) {
	a := newDigest(t)
	other, err := NewDigest(
		tuple.MustSchema(tuple.Column{Name: "x", Kind: tuple.KindInt}),
		DefaultDigestConfig(), rand.New(rand.NewSource(1)),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(other); err == nil {
		t.Error("schema mismatch accepted")
	}
	small, _ := NewDigest(digSchema, CompactDigestConfig(), rand.New(rand.NewSource(1)))
	if err := a.Merge(small); err == nil {
		t.Error("config mismatch accepted")
	}
}

func TestShelfConsolidate(t *testing.T) {
	s := NewShelf(digSchema, DefaultDigestConfig(), rand.New(rand.NewSource(9)))
	s.Absorb("hour-0", 1, 5, []tuple.Tuple{mk(1, "a", 1), mk(2, "b", 2)})
	s.Absorb("hour-1", 2, 5, []tuple.Tuple{mk(3, "a", 3)})
	s.Absorb("keep", 2, 0, []tuple.Tuple{mk(4, "z", 4)})

	if err := s.Consolidate("day-0", 3, 0, "hour-0", "hour-1", "missing"); err != nil {
		t.Fatal(err)
	}
	list := s.List()
	if len(list) != 2 || list[0].Name != "day-0" || list[1].Name != "keep" {
		t.Fatalf("list = %+v", list)
	}
	day := s.Get("day-0")
	if day.Digest.Count() != 3 {
		t.Errorf("day count = %d", day.Digest.Count())
	}
	if day.HalfLife != 0 {
		t.Errorf("day half-life = %v", day.HalfLife)
	}
	// Consolidating into an existing container accumulates.
	s.Absorb("hour-2", 4, 5, []tuple.Tuple{mk(5, "c", 5)})
	if err := s.Consolidate("day-0", 5, 0, "hour-2"); err != nil {
		t.Fatal(err)
	}
	if got := s.Get("day-0").Digest.Count(); got != 4 {
		t.Errorf("day count after second roll-up = %d", got)
	}
	// Self-consolidation is a no-op, not a deletion.
	if err := s.Consolidate("day-0", 6, 0, "day-0"); err != nil {
		t.Fatal(err)
	}
	if s.Get("day-0") == nil {
		t.Error("self-consolidation deleted the container")
	}
}

func TestReservoirMergeSeenAccounting(t *testing.T) {
	a := newDigest(t)
	b := newDigest(t)
	fillDigest(t, a, 0, 100, 1)
	fillDigest(t, b, 100, 300, 1)
	a.Merge(b)
	sample, err := a.Sample()
	if err != nil {
		t.Fatal(err)
	}
	if len(sample) == 0 || len(sample) > DefaultDigestConfig().SampleSize {
		t.Errorf("merged sample size = %d", len(sample))
	}
	// Sampled tuples decode against the schema (no corruption).
	for _, tp := range sample {
		if len(tp.Attrs) != 4 {
			t.Errorf("corrupt sampled tuple %v", tp)
		}
	}
}
