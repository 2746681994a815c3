package sketch

import (
	"fmt"
	"math/rand"
)

// Reservoir keeps a uniform random sample of up to k observed items
// (Vitter's Algorithm R). It preserves a representative taste of data
// that is about to rot away.
type Reservoir struct {
	k     int
	seen  uint64
	items [][]byte
	rng   *rand.Rand
}

// NewReservoir builds a sampler holding at most k items, driven by the
// given deterministic source.
func NewReservoir(k int, rng *rand.Rand) (*Reservoir, error) {
	if k <= 0 {
		return nil, fmt.Errorf("sketch: reservoir size %d must be positive", k)
	}
	if rng == nil {
		return nil, fmt.Errorf("sketch: reservoir needs a rand source")
	}
	return &Reservoir{k: k, rng: rng, items: make([][]byte, 0, k)}, nil
}

// Add observes one item. The sampler copies the bytes.
func (r *Reservoir) Add(item []byte) {
	r.seen++
	cp := append([]byte(nil), item...)
	if len(r.items) < r.k {
		r.items = append(r.items, cp)
		return
	}
	j := r.rng.Int63n(int64(r.seen))
	if j < int64(r.k) {
		r.items[j] = cp
	}
}

// Seen returns the number of items observed.
func (r *Reservoir) Seen() uint64 { return r.seen }

// Sample returns the current sample. The returned slices are owned by
// the reservoir; callers must not mutate them.
func (r *Reservoir) Sample() [][]byte { return r.items }

// Bytes returns the approximate memory footprint.
func (r *Reservoir) Bytes() int {
	n := 24 * cap(r.items)
	for _, it := range r.items {
		n += len(it)
	}
	return n
}
