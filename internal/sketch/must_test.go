package sketch

import "math/rand"

// The Must constructors are the tests' shorthand: each is its New
// constructor that panics on error.

// MustTopK is NewTopK that panics on error.
func MustTopK(k int) *TopK {
	t, err := NewTopK(k)
	if err != nil {
		panic(err)
	}
	return t
}

// MustCountMin is NewCountMin that panics on error.
func MustCountMin(epsilon, delta float64) *CountMin {
	cm, err := NewCountMin(epsilon, delta)
	if err != nil {
		panic(err)
	}
	return cm
}

// MustHistogram is NewHistogram that panics on error.
func MustHistogram(n int) *Histogram {
	h, err := NewHistogram(n)
	if err != nil {
		panic(err)
	}
	return h
}

// MustReservoir is NewReservoir that panics on error.
func MustReservoir(k int, rng *rand.Rand) *Reservoir {
	r, err := NewReservoir(k, rng)
	if err != nil {
		panic(err)
	}
	return r
}

// MustHLL is NewHLL that panics on error.
func MustHLL(precision uint8) *HLL {
	h, err := NewHLL(precision)
	if err != nil {
		panic(err)
	}
	return h
}
