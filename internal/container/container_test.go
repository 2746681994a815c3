package container

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fungusdb/internal/clock"
	"fungusdb/internal/tuple"
)

var digSchema = tuple.MustSchema(
	tuple.Column{Name: "device", Kind: tuple.KindString},
	tuple.Column{Name: "temp", Kind: tuple.KindFloat},
	tuple.Column{Name: "n", Kind: tuple.KindInt},
	tuple.Column{Name: "ok", Kind: tuple.KindBool},
)

func newDigest(t *testing.T) *Digest {
	t.Helper()
	d, err := NewDigest(digSchema, DefaultDigestConfig(), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDigestCountAndRange(t *testing.T) {
	d := newDigest(t)
	for i := 0; i < 100; i++ {
		tp := tuple.New(tuple.ID(i), clock.Tick(10+i), []tuple.Value{
			tuple.String_(fmt.Sprintf("dev-%d", i%5)), tuple.Float(float64(i)), tuple.Int(int64(i)), tuple.Bool(i%2 == 0),
		})
		tp.F = 0.5
		if err := d.Absorb(&tp); err != nil {
			t.Fatal(err)
		}
	}
	if d.Count() != 100 {
		t.Errorf("Count = %d", d.Count())
	}
	lo, hi := d.TickRange()
	if lo != 10 || hi != 109 {
		t.Errorf("TickRange = [%v, %v], want [10, 109]", lo, hi)
	}
	if d.MeanFreshness() != 0.5 {
		t.Errorf("MeanFreshness = %v", d.MeanFreshness())
	}
}

func TestDigestNDVAndFrequency(t *testing.T) {
	d := newDigest(t)
	for i := 0; i < 1000; i++ {
		tp := tuple.New(tuple.ID(i), 1, []tuple.Value{
			tuple.String_(fmt.Sprintf("dev-%d", i%20)), tuple.Float(1), tuple.Int(int64(i)), tuple.Bool(true),
		})
		d.Absorb(&tp)
	}
	ndv, err := d.NDV("device")
	if err != nil {
		t.Fatal(err)
	}
	if ndv < 18 || ndv > 22 {
		t.Errorf("NDV(device) = %d, want ≈20", ndv)
	}
	freq, err := d.Frequency("device", tuple.String_("dev-3"))
	if err != nil {
		t.Fatal(err)
	}
	if freq < 50 {
		t.Errorf("Frequency(dev-3) = %d, want >= 50", freq)
	}
	if _, err := d.NDV("nosuch"); err == nil {
		t.Error("NDV unknown column accepted")
	}
}

func TestDigestHeavyHitters(t *testing.T) {
	d := newDigest(t)
	for i := 0; i < 900; i++ {
		dev := "common"
		if i%10 == 9 {
			dev = fmt.Sprintf("rare-%d", i)
		}
		tp := tuple.New(tuple.ID(i), 1, []tuple.Value{
			tuple.String_(dev), tuple.Float(1), tuple.Int(1), tuple.Bool(true),
		})
		d.Absorb(&tp)
	}
	top, err := d.HeavyHitters("device", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 1 || top[0].Item != "common" {
		t.Errorf("HeavyHitters = %v", top)
	}
	if top[0].Count < 810 {
		t.Errorf("heavy hitter count %d, want >= 810", top[0].Count)
	}
}

func TestDigestQuantileMeanSum(t *testing.T) {
	d := newDigest(t)
	var sum float64
	for i := 1; i <= 1000; i++ {
		tp := tuple.New(tuple.ID(i), 1, []tuple.Value{
			tuple.String_("d"), tuple.Float(float64(i)), tuple.Int(int64(i)), tuple.Bool(true),
		})
		sum += float64(i)
		d.Absorb(&tp)
	}
	med, err := d.Quantile("temp", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(med-500) > 40 {
		t.Errorf("median = %v, want ≈500", med)
	}
	mean, _ := d.Mean("temp")
	if math.Abs(mean-500.5) > 1e-9 {
		t.Errorf("mean = %v", mean)
	}
	got, _ := d.Sum("temp")
	if got != sum {
		t.Errorf("sum = %v, want %v", got, sum)
	}
	if _, err := d.Quantile("device", 0.5); err == nil {
		t.Error("quantile over string accepted")
	}
	if _, err := d.Mean("ok"); err == nil {
		t.Error("mean over bool accepted")
	}
}

func TestDigestMayContain(t *testing.T) {
	d := newDigest(t)
	tp := tuple.New(1, 1, []tuple.Value{
		tuple.String_("present"), tuple.Float(42), tuple.Int(7), tuple.Bool(true),
	})
	d.Absorb(&tp)
	if got, _ := d.MayContain("device", tuple.String_("present")); !got {
		t.Error("false negative on device")
	}
	if got, _ := d.MayContain("n", tuple.Int(7)); !got {
		t.Error("false negative on n")
	}
	if got, _ := d.MayContain("device", tuple.String_("never-seen-value")); got {
		t.Error("likely false positive on a 1-item bloom (suspicious)")
	}
}

func TestDigestSampleRoundTrip(t *testing.T) {
	d := newDigest(t)
	for i := 0; i < 10; i++ {
		tp := tuple.New(tuple.ID(i), 1, []tuple.Value{
			tuple.String_("d"), tuple.Float(float64(i)), tuple.Int(int64(i)), tuple.Bool(true),
		})
		d.Absorb(&tp)
	}
	sample, err := d.Sample()
	if err != nil {
		t.Fatal(err)
	}
	if len(sample) != 10 {
		t.Errorf("sample size %d, want 10 (under reservoir capacity)", len(sample))
	}
	for _, tp := range sample {
		if tp.Attrs[0].AsString() != "d" {
			t.Errorf("corrupt sample tuple: %v", tp)
		}
	}
}

func TestDigestArityMismatch(t *testing.T) {
	d := newDigest(t)
	tp := tuple.New(1, 1, []tuple.Value{tuple.Int(1)})
	if err := d.Absorb(&tp); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestDigestBytesSmallerThanRaw(t *testing.T) {
	d := newDigest(t)
	raw := 0
	for i := 0; i < 200_000; i++ {
		tp := tuple.New(tuple.ID(i), 1, []tuple.Value{
			tuple.String_(fmt.Sprintf("device-with-a-long-name-%d", i%100)),
			tuple.Float(float64(i)), tuple.Int(int64(i)), tuple.Bool(true),
		})
		raw += tp.Size()
		d.Absorb(&tp)
	}
	if d.Bytes() >= raw/10 {
		t.Errorf("digest %d bytes vs raw %d: compression < 10x", d.Bytes(), raw)
	}
}

func TestContainerDecay(t *testing.T) {
	d := newDigest(t)
	c := NewContainer("week-1", d, 0, 10) // half-life 10 ticks
	if c.Freshness() != tuple.Full || c.Rotten() {
		t.Fatal("new container not fresh")
	}
	for i := 0; i < 10; i++ {
		c.Tick()
	}
	if math.Abs(float64(c.Freshness())-0.5) > 1e-9 {
		t.Errorf("freshness after one half-life = %v", c.Freshness())
	}
	for i := 0; i < 200 && !c.Rotten(); i++ {
		c.Tick()
	}
	if !c.Rotten() {
		t.Error("container never rotted")
	}
}

func TestContainerNoDecayAndTouch(t *testing.T) {
	c := NewContainer("forever", newDigest(t), 0, 0)
	for i := 0; i < 1000; i++ {
		c.Tick()
	}
	if c.Freshness() != tuple.Full {
		t.Error("half-life 0 container decayed")
	}
	c2 := NewContainer("touched", newDigest(t), 0, 5)
	for i := 0; i < 4; i++ {
		c2.Tick()
	}
	c2.Touch()
	if c2.Freshness() != tuple.Full {
		t.Error("Touch did not refresh")
	}
}

func TestShelfLifecycle(t *testing.T) {
	s := NewShelf(digSchema, DefaultDigestConfig(), rand.New(rand.NewSource(2)))
	tuples := []tuple.Tuple{
		mk(1, "a", 1),
		mk(2, "b", 2),
	}
	if err := s.Absorb("bucket-1", 5, 4, tuples); err != nil {
		t.Fatal(err)
	}
	if err := s.Absorb("bucket-2", 5, 0, tuples); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if got := s.List(); len(got) != 2 || got[0].Name != "bucket-1" || got[1].Name != "bucket-2" ||
		got[0].Count != 2 || got[0].Bytes <= 0 || got[0].Freshness != tuple.Full {
		t.Errorf("List = %+v", got)
	}
	c := s.Get("bucket-1")
	if c == nil || c.Digest.Count() != 2 {
		t.Fatalf("bucket-1 = %+v", c)
	}
	if s.Get("nosuch") != nil {
		t.Error("Get(nosuch) non-nil")
	}

	// Decay until bucket-1 (half-life 4) rots; bucket-2 (0) survives.
	var gone []string
	for i := 0; i < 100 && len(gone) == 0; i++ {
		gone = s.Tick()
	}
	if len(gone) != 1 || gone[0] != "bucket-1" {
		t.Errorf("discarded %v", gone)
	}
	if s.Len() != 1 || s.Discarded() != 1 {
		t.Errorf("Len=%d Discarded=%d", s.Len(), s.Discarded())
	}
	if s.Bytes() <= 0 {
		t.Error("Bytes not positive with a live container")
	}
}

func TestShelfAbsorbIntoExisting(t *testing.T) {
	s := NewShelf(digSchema, DefaultDigestConfig(), rand.New(rand.NewSource(3)))
	s.Absorb("b", 1, 0, []tuple.Tuple{mk(1, "x", 1)})
	s.Absorb("b", 2, 0, []tuple.Tuple{mk(2, "y", 2)})
	if got := s.Get("b").Digest.Count(); got != 2 {
		t.Errorf("Count = %d, want 2", got)
	}
}

func mk(id uint64, device string, n int64) tuple.Tuple {
	return tuple.New(tuple.ID(id), 1, []tuple.Value{
		tuple.String_(device), tuple.Float(float64(n)), tuple.Int(n), tuple.Bool(true),
	})
}
