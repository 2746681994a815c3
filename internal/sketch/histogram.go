package sketch

import (
	"fmt"
	"math"
	"sort"
)

// Histogram is a streaming equi-width histogram over float64 values with
// automatic range growth: when a value falls outside the current range
// the histogram doubles its span (merging adjacent buckets) until the
// value fits, so the bucket count stays fixed while coverage adapts.
type Histogram struct {
	buckets []uint64
	lo, hi  float64 // current covered range, hi > lo once initialised
	count   uint64
	sum     float64
	min     float64
	max     float64
	init    bool
}

// NewHistogram builds a histogram with n buckets (n must be even and
// at least 2, so range doubling can merge pairs cleanly).
func NewHistogram(n int) (*Histogram, error) {
	if n < 2 || n%2 != 0 {
		return nil, fmt.Errorf("sketch: histogram needs an even bucket count >= 2, got %d", n)
	}
	return &Histogram{buckets: make([]uint64, n)}, nil
}

// MustHistogram is NewHistogram that panics on error.
func MustHistogram(n int) *Histogram {
	h, err := NewHistogram(n)
	if err != nil {
		panic(err)
	}
	return h
}

// Add observes v. NaN is ignored.
func (h *Histogram) Add(v float64) {
	if math.IsNaN(v) {
		return
	}
	if !h.init {
		h.lo, h.hi = v, v+1 // degenerate unit span around the first value
		h.min, h.max = v, v
		h.init = true
	}
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	for v < h.lo || v >= h.hi {
		h.grow(v)
	}
	idx := int(float64(len(h.buckets)) * (v - h.lo) / (h.hi - h.lo))
	if idx == len(h.buckets) { // v == hi after float rounding
		idx--
	}
	h.buckets[idx]++
	h.count++
	h.sum += v
}

// grow doubles the covered range toward v, merging bucket pairs.
func (h *Histogram) grow(v float64) {
	n := len(h.buckets)
	span := h.hi - h.lo
	merged := make([]uint64, n)
	if v < h.lo {
		// New range [lo-span, hi): old content moves to the upper half.
		for i := 0; i < n; i += 2 {
			merged[n/2+i/2] = h.buckets[i] + h.buckets[i+1]
		}
		h.lo -= span
	} else {
		// New range [lo, hi+span): old content compresses to lower half.
		for i := 0; i < n; i += 2 {
			merged[i/2] = h.buckets[i] + h.buckets[i+1]
		}
		h.hi += span
	}
	h.buckets = merged
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the average observation, or 0 before any Add.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min and Max return the observed extremes (exact, not bucketed). They
// return 0 before any Add.
func (h *Histogram) Min() float64 { return h.min }

// Max returns the maximum observed value.
func (h *Histogram) Max() float64 { return h.max }

// Quantile returns an estimate of the q'th quantile (q in [0,1]) by
// linear interpolation within the containing bucket.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := q * float64(h.count)
	var cum float64
	width := (h.hi - h.lo) / float64(len(h.buckets))
	for i, c := range h.buckets {
		next := cum + float64(c)
		if next >= target && c > 0 {
			frac := (target - cum) / float64(c)
			est := h.lo + (float64(i)+frac)*width
			// Clamp into the observed range; bucket edges can stick out.
			return math.Max(h.min, math.Min(h.max, est))
		}
		cum = next
	}
	return h.max
}

// Buckets returns a copy of the current counts along with the covered
// range, for report rendering.
func (h *Histogram) Buckets() (counts []uint64, lo, hi float64) {
	counts = make([]uint64, len(h.buckets))
	copy(counts, h.buckets)
	return counts, h.lo, h.hi
}

// Bytes returns the approximate memory footprint.
func (h *Histogram) Bytes() int { return 8*len(h.buckets) + 64 }

// ExactQuantile returns the true q'th quantile of data: position
// q·(len-1) of the sorted values, interpolated linearly between the two
// ranks around it. It is the reference that sketch estimates are
// measured against.
func ExactQuantile(data []float64, q float64) float64 {
	if len(data) == 0 {
		return 0
	}
	sorted := append([]float64(nil), data...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 < len(sorted) {
		return sorted[i]*(1-frac) + sorted[i+1]*frac
	}
	return sorted[i]
}
