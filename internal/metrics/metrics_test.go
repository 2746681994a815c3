package metrics

import (
	"math"
	"strings"
	"testing"

	"fungusdb/internal/storage"
	"fungusdb/internal/tuple"
)

// buildStore builds a one-shard extent holding one tuple per freshness
// value, with IDs 0, 1, 2, ...
func buildStore(t *testing.T, freshness []float64) *storage.ShardedStore {
	t.Helper()
	s := storage.NewSharded(tuple.MustSchema(tuple.Column{Name: "n", Kind: tuple.KindInt}), 1, storage.WithSegmentSize(8))
	for i, f := range freshness {
		tp, err := s.Insert(1, []tuple.Value{tuple.Int(int64(i))})
		if err != nil {
			t.Fatal(err)
		}
		fv := f
		s.Shard(0).Update(tp.ID, func(x *tuple.Tuple) { x.F = tuple.Freshness(fv) })
	}
	return s
}

func TestProfileEmpty(t *testing.T) {
	s := buildStore(t, nil)
	p := Profile(s)
	if p.Live != 0 || p.Mean != 0 || p.Min != 0 {
		t.Errorf("empty profile = %+v", p)
	}
}

func TestProfileStats(t *testing.T) {
	s := buildStore(t, []float64{1.0, 0.5, 0.25, 0.05})
	s.Shard(0).Update(3, func(tp *tuple.Tuple) { tp.Infected = true })
	p := Profile(s)
	if p.Live != 4 {
		t.Errorf("Live = %d", p.Live)
	}
	if math.Abs(p.Mean-0.45) > 1e-9 {
		t.Errorf("Mean = %v", p.Mean)
	}
	if p.Min != 0.05 {
		t.Errorf("Min = %v", p.Min)
	}
	if p.Infected != 1 {
		t.Errorf("Infected = %d", p.Infected)
	}
	// Deciles: 1.0 -> bucket 9; 0.5 -> 5; 0.25 -> 2; 0.05 -> 0.
	want := [10]int{0: 1, 2: 1, 5: 1, 9: 1}
	if p.Deciles != want {
		t.Errorf("Deciles = %v, want %v", p.Deciles, want)
	}
	if p.Bytes <= 0 {
		t.Error("Bytes not positive")
	}
	str := p.String()
	if !strings.Contains(str, "live=4") || !strings.Contains(str, "[") {
		t.Errorf("String = %q", str)
	}
}

func TestTimeSeriesSplitsEvenly(t *testing.T) {
	fr := make([]float64, 100)
	for i := range fr {
		fr[i] = 1.0
	}
	// Carve a rot spot in IDs 40..59.
	for i := 40; i < 60; i++ {
		fr[i] = 0.1
	}
	s := buildStore(t, fr)
	buckets := TimeSeries(s, 10)
	if len(buckets) != 10 {
		t.Fatalf("buckets = %d", len(buckets))
	}
	for i, b := range buckets {
		if b.Live != 10 {
			t.Errorf("bucket %d Live = %d", i, b.Live)
		}
		if b.Dead != 0 {
			t.Errorf("bucket %d Dead = %d", i, b.Dead)
		}
	}
	// Buckets 4 and 5 hold the spot.
	if buckets[4].Mean > 0.2 || buckets[5].Mean > 0.2 {
		t.Errorf("spot buckets mean = %v, %v", buckets[4].Mean, buckets[5].Mean)
	}
	if buckets[0].Mean != 1 || buckets[9].Mean != 1 {
		t.Errorf("edge buckets mean = %v, %v", buckets[0].Mean, buckets[9].Mean)
	}
}

func TestTimeSeriesCountsDeadRanges(t *testing.T) {
	s := buildStore(t, []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	for id := tuple.ID(2); id < 6; id++ {
		s.Shard(0).Evict(id)
	}
	buckets := TimeSeries(s, 2)
	if len(buckets) != 2 {
		t.Fatalf("buckets = %d", len(buckets))
	}
	if buckets[0].Live+buckets[1].Live != 6 {
		t.Errorf("live total = %d", buckets[0].Live+buckets[1].Live)
	}
	if buckets[0].Dead+buckets[1].Dead != 4 {
		t.Errorf("dead total = %d", buckets[0].Dead+buckets[1].Dead)
	}
}

func TestTimeSeriesEmptyAndSmall(t *testing.T) {
	if got := TimeSeries(buildStore(t, nil), 5); got != nil {
		t.Errorf("empty extent buckets = %v", got)
	}
	// More buckets than tuples: shrink to tuple count.
	got := TimeSeries(buildStore(t, []float64{1, 1, 1}), 10)
	if len(got) != 3 {
		t.Errorf("3-tuple extent gave %d buckets", len(got))
	}
}

func TestTimeSeriesPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on n=0")
		}
	}()
	TimeSeries(buildStore(t, []float64{1}), 0)
}

func TestCountersCaptureRate(t *testing.T) {
	var c Counters
	if c.CaptureRate() != 1 {
		t.Errorf("empty capture rate = %v, want 1", c.CaptureRate())
	}
	c = Counters{Rotted: 80, Consumed: 20, DistilledRot: 60, DistilledQuery: 20}
	if got := c.CaptureRate(); got != 0.8 {
		t.Errorf("CaptureRate = %v, want 0.8", got)
	}
	if math.Abs(c.LossRate()-0.2) > 1e-12 {
		t.Errorf("LossRate = %v, want 0.2", c.LossRate())
	}
	if !strings.Contains(c.String(), "capture=0.80") {
		t.Errorf("String = %q", c.String())
	}
}
