package sketch

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func key(i int) []byte { return []byte(fmt.Sprintf("key-%d", i)) }

func TestCountMinNeverUnderestimates(t *testing.T) {
	cm := MustCountMin(0.01, 0.01)
	truth := map[int]uint64{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		k := rng.Intn(500)
		truth[k]++
		cm.Add(key(k))
	}
	for k, want := range truth {
		if got := cm.Estimate(key(k)); got < want {
			t.Fatalf("Estimate(%d) = %d < true %d", k, got, want)
		}
	}
}

func TestCountMinErrorBound(t *testing.T) {
	const eps = 0.01
	cm := MustCountMin(eps, 0.001)
	truth := map[int]uint64{}
	rng := rand.New(rand.NewSource(2))
	const n = 50000
	for i := 0; i < n; i++ {
		k := int(math.Abs(rng.NormFloat64()) * 100)
		truth[k]++
		cm.Add(key(k))
	}
	bad := 0
	for k, want := range truth {
		got := cm.Estimate(key(k))
		if float64(got-want) > eps*float64(n) {
			bad++
		}
	}
	if bad > 0 {
		t.Errorf("%d/%d keys exceeded the eps*N overestimate bound", bad, len(truth))
	}
}

func TestCountMinAddNAndTotal(t *testing.T) {
	cm := MustCountMin(0.1, 0.1)
	cm.AddN(key(1), 10)
	cm.Add(key(1))
	if got := cm.Estimate(key(1)); got < 11 {
		t.Errorf("Estimate = %d, want >= 11", got)
	}
	if cm.Total() != 11 {
		t.Errorf("Total = %d, want 11", cm.Total())
	}
	if cm.Estimate(key(99)) > uint64(float64(cm.Total())) {
		t.Errorf("absent key estimate too large")
	}
}

func TestCountMinMerge(t *testing.T) {
	a := MustCountMin(0.05, 0.05)
	b := MustCountMin(0.05, 0.05)
	a.AddN(key(1), 5)
	b.AddN(key(1), 7)
	b.AddN(key(2), 3)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if got := a.Estimate(key(1)); got < 12 {
		t.Errorf("merged estimate = %d, want >= 12", got)
	}
	if a.Total() != 15 {
		t.Errorf("merged total = %d, want 15", a.Total())
	}
	c := MustCountMin(0.5, 0.5)
	if err := a.Merge(c); err == nil {
		t.Error("shape-mismatched merge accepted")
	}
}

func TestCountMinValidation(t *testing.T) {
	for _, c := range [][2]float64{{0, 0.1}, {1, 0.1}, {0.1, 0}, {0.1, 1}, {-1, 0.5}} {
		if _, err := NewCountMin(c[0], c[1]); err == nil {
			t.Errorf("NewCountMin(%v, %v) accepted", c[0], c[1])
		}
	}
}

func TestHLLAccuracy(t *testing.T) {
	for _, n := range []int{100, 1000, 50000} {
		h := MustHLL(12)
		for i := 0; i < n; i++ {
			h.Add(key(i))
		}
		got := float64(h.Estimate())
		relErr := math.Abs(got-float64(n)) / float64(n)
		if relErr > 0.06 {
			t.Errorf("n=%d: estimate %v off by %.1f%%", n, got, relErr*100)
		}
	}
}

func TestHLLDuplicatesDoNotInflate(t *testing.T) {
	h := MustHLL(12)
	for round := 0; round < 10; round++ {
		for i := 0; i < 500; i++ {
			h.Add(key(i))
		}
	}
	got := float64(h.Estimate())
	if math.Abs(got-500)/500 > 0.06 {
		t.Errorf("estimate %v for 500 distinct across duplicates", got)
	}
}

func TestHLLMerge(t *testing.T) {
	a, b := MustHLL(10), MustHLL(10)
	for i := 0; i < 1000; i++ {
		a.Add(key(i))
		b.Add(key(i + 500)) // 50% overlap
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	got := float64(a.Estimate())
	if math.Abs(got-1500)/1500 > 0.1 {
		t.Errorf("merged estimate %v, want ≈1500", got)
	}
	c := MustHLL(11)
	if err := a.Merge(c); err == nil {
		t.Error("precision-mismatched merge accepted")
	}
}

func TestHLLValidation(t *testing.T) {
	for _, p := range []uint8{0, 3, 17} {
		if _, err := NewHLL(p); err == nil {
			t.Errorf("NewHLL(%d) accepted", p)
		}
	}
	if h := MustHLL(4); h.Estimate() != 0 {
		t.Error("empty HLL estimate not 0")
	}
}

func TestReservoirUnderfill(t *testing.T) {
	r := MustReservoir(10, rand.New(rand.NewSource(3)))
	for i := 0; i < 5; i++ {
		r.Add(key(i))
	}
	if len(r.Sample()) != 5 || r.Seen() != 5 {
		t.Errorf("sample %d seen %d", len(r.Sample()), r.Seen())
	}
}

func TestReservoirUniformity(t *testing.T) {
	// Each of 100 items should land in a k=10 reservoir with p = 0.1.
	const items, k, trials = 100, 10, 3000
	counts := make([]int, items)
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < trials; trial++ {
		r := MustReservoir(k, rng)
		for i := 0; i < items; i++ {
			r.Add(key(i))
		}
		for _, it := range r.Sample() {
			var idx int
			fmt.Sscanf(string(it), "key-%d", &idx)
			counts[idx]++
		}
	}
	want := float64(trials) * float64(k) / float64(items)
	for i, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.25 {
			t.Errorf("item %d sampled %d times, want ≈%.0f", i, c, want)
		}
	}
}

func TestReservoirCopiesInput(t *testing.T) {
	r := MustReservoir(2, rand.New(rand.NewSource(5)))
	buf := []byte("mutable")
	r.Add(buf)
	buf[0] = 'X'
	if string(r.Sample()[0]) != "mutable" {
		t.Error("reservoir aliases caller's buffer")
	}
}

func TestReservoirValidation(t *testing.T) {
	if _, err := NewReservoir(0, rand.New(rand.NewSource(1))); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NewReservoir(1, nil); err == nil {
		t.Error("nil rng accepted")
	}
}

func TestHistogramBasicStats(t *testing.T) {
	h := MustHistogram(32)
	for i := 1; i <= 100; i++ {
		h.Add(float64(i))
	}
	if h.Count() != 100 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.Sum() != 5050 {
		t.Errorf("Sum = %v", h.Sum())
	}
	if h.Mean() != 50.5 {
		t.Errorf("Mean = %v", h.Mean())
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Errorf("Min/Max = %v/%v", h.Min(), h.Max())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := MustHistogram(64)
	var data []float64
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 10000; i++ {
		v := rng.Float64() * 1000
		data = append(data, v)
		h.Add(v)
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		got := h.Quantile(q)
		want := ExactQuantile(data, q)
		if math.Abs(got-want) > 40 { // ~2.5 bucket widths of slack
			t.Errorf("q=%v: got %v, want %v", q, got, want)
		}
	}
	if h.Quantile(0) != h.Min() || h.Quantile(1) != h.Max() {
		t.Error("extreme quantiles should be exact min/max")
	}
}

func TestHistogramRangeGrowth(t *testing.T) {
	h := MustHistogram(8)
	h.Add(0)
	h.Add(1000)   // forces upward growth
	h.Add(-1000)  // forces downward growth
	h.Add(999999) // forces many doublings
	if h.Count() != 4 {
		t.Errorf("Count = %d, want 4", h.Count())
	}
	if h.Min() != -1000 || h.Max() != 999999 {
		t.Errorf("Min/Max = %v/%v", h.Min(), h.Max())
	}
	counts, lo, hi := h.Buckets()
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total != 4 {
		t.Errorf("bucket mass = %d, want 4", total)
	}
	if lo > -1000 || hi <= 999999 {
		t.Errorf("range [%v,%v) does not cover data", lo, hi)
	}
}

func TestHistogramIgnoresNaN(t *testing.T) {
	h := MustHistogram(4)
	h.Add(math.NaN())
	if h.Count() != 0 {
		t.Error("NaN counted")
	}
}

func TestHistogramValidation(t *testing.T) {
	for _, n := range []int{0, 1, 3, -2} {
		if _, err := NewHistogram(n); err == nil {
			t.Errorf("NewHistogram(%d) accepted", n)
		}
	}
}

func TestBloomNoFalseNegatives(t *testing.T) {
	b := MustBloom(1000, 0.01)
	for i := 0; i < 1000; i++ {
		b.Add(key(i))
	}
	for i := 0; i < 1000; i++ {
		if !b.MayContain(key(i)) {
			t.Fatalf("false negative for key %d", i)
		}
	}
}

func TestBloomFalsePositiveRate(t *testing.T) {
	b := MustBloom(1000, 0.01)
	for i := 0; i < 1000; i++ {
		b.Add(key(i))
	}
	fp := 0
	const probes = 10000
	for i := 0; i < probes; i++ {
		if b.MayContain(key(100000 + i)) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate > 0.03 {
		t.Errorf("false positive rate %.4f, want <= 0.03", rate)
	}
}

func TestBloomValidation(t *testing.T) {
	if _, err := NewBloom(0, 0.01); err == nil {
		t.Error("zero items accepted")
	}
	if _, err := NewBloom(10, 0); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := NewBloom(10, 1); err == nil {
		t.Error("rate 1 accepted")
	}
}

// BloomFrom reads filters out of snapshot zone blobs, so a header that
// claims more words than the bytes that follow, or an absurd hash
// count, must fail before anything is allocated or probed.
func TestBloomFromRejectsImplausibleHeader(t *testing.T) {
	b := MustBloom(100, 0.01)
	b.AddString("x")
	good := b.AppendTo(nil)
	got, n, err := BloomFrom(good)
	if err != nil || n != len(good) || !got.MayContainString("x") {
		t.Fatalf("round trip: n=%d err=%v", n, err)
	}
	header := func(nbits, k uint64) []byte {
		h := binary.AppendUvarint(nil, nbits)
		h = binary.AppendUvarint(h, k)
		h = binary.AppendUvarint(h, 1)
		return append(h, 0, 0, 0, 0)
	}
	for _, bad := range [][]byte{
		header(1<<20, 7), // 2^14 words behind four bytes
		header(^uint64(0), 7),
		header(64, 1<<32), // k wraps to 0 as a uint32
		header(64, 1000),  // every Add would probe 1000 times
	} {
		if _, _, err := BloomFrom(bad); err == nil {
			t.Errorf("BloomFrom(%x) accepted an implausible header", bad)
		}
	}
}

func TestTopKFindsHeavyHitters(t *testing.T) {
	tk := MustTopK(20)
	rng := rand.New(rand.NewSource(7))
	// 5 heavy keys with ~1000 hits each over ~5500 noise observations.
	for i := 0; i < 5000; i++ {
		tk.Add(key(rng.Intn(5)))
	}
	for i := 0; i < 5500; i++ {
		tk.Add(key(100 + rng.Intn(5000)))
	}
	top := tk.Top(5)
	if len(top) != 5 {
		t.Fatalf("Top(5) returned %d", len(top))
	}
	for _, e := range top {
		var idx int
		fmt.Sscanf(e.Item, "key-%d", &idx)
		if idx >= 5 {
			t.Errorf("noise key %q in top 5", e.Item)
		}
	}
}

func TestTopKGuarantee(t *testing.T) {
	// Space-Saving guarantees est >= true count for tracked items.
	tk := MustTopK(3)
	seq := []int{1, 1, 1, 2, 2, 3, 4, 5, 1, 2}
	truth := map[int]uint64{}
	for _, v := range seq {
		truth[v]++
		tk.Add(key(v))
	}
	for _, e := range tk.Top(3) {
		var idx int
		fmt.Sscanf(e.Item, "key-%d", &idx)
		if e.Count < truth[idx] {
			t.Errorf("item %d estimated %d < true %d", idx, e.Count, truth[idx])
		}
	}
	if tk.Total() != uint64(len(seq)) {
		t.Errorf("Total = %d", tk.Total())
	}
}

func TestTopKDeterministicOrder(t *testing.T) {
	build := func() []Entry {
		tk := MustTopK(10)
		for i := 0; i < 100; i++ {
			tk.Add(key(i % 10))
		}
		return tk.Top(10)
	}
	a, b := build(), build()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic Top: %v vs %v", a, b)
		}
	}
}

func TestTopKValidation(t *testing.T) {
	if _, err := NewTopK(0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestSketchBytesArePositive(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	sketches := []interface{ Bytes() int }{
		MustCountMin(0.01, 0.01),
		MustHLL(12),
		MustReservoir(10, rng),
		MustHistogram(32),
		MustBloom(100, 0.01),
		MustTopK(10),
	}
	for i, s := range sketches {
		if s.Bytes() <= 0 {
			t.Errorf("sketch %d reports %d bytes", i, s.Bytes())
		}
	}
}

// Property: count-min estimates are monotone under additional inserts.
func TestQuickCountMinMonotone(t *testing.T) {
	f := func(items []uint8) bool {
		cm := MustCountMin(0.1, 0.1)
		prev := map[uint8]uint64{}
		for _, it := range items {
			before := cm.Estimate([]byte{it})
			if before < prev[it] {
				return false
			}
			cm.Add([]byte{it})
			after := cm.Estimate([]byte{it})
			if after < before+1 {
				return false
			}
			prev[it] = after
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: bloom filters never forget.
func TestQuickBloomNoFalseNegative(t *testing.T) {
	f := func(items [][]byte) bool {
		if len(items) == 0 {
			return true
		}
		b := MustBloom(uint64(len(items)), 0.05)
		for _, it := range items {
			b.Add(it)
		}
		for _, it := range items {
			if !b.MayContain(it) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
