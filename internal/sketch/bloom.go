package sketch

import (
	"fmt"
	"math"
	"math/bits"
)

// Bloom is a Bloom filter: a compact set membership summary with
// configurable false-positive rate and no false negatives. Distilled
// containers use it to answer "was a tuple like this ever present?"
// after the raw data has rotted away.
type Bloom struct {
	bits  []uint64
	nbits uint64
	k     uint32 // number of hash functions
	added uint64
}

// NewBloom sizes a filter for expectedItems at the target
// falsePositiveRate (both must be positive; rate in (0,1)).
func NewBloom(expectedItems uint64, falsePositiveRate float64) (*Bloom, error) {
	if expectedItems == 0 {
		return nil, fmt.Errorf("sketch: bloom expectedItems must be positive")
	}
	if falsePositiveRate <= 0 || falsePositiveRate >= 1 {
		return nil, fmt.Errorf("sketch: bloom fp rate %v out of (0,1)", falsePositiveRate)
	}
	// Optimal sizing: m = -n ln p / (ln 2)^2, k = m/n ln 2.
	m := uint64(math.Ceil(-float64(expectedItems) * math.Log(falsePositiveRate) / (math.Ln2 * math.Ln2)))
	if m < 64 {
		m = 64
	}
	k := uint32(math.Round(float64(m) / float64(expectedItems) * math.Ln2))
	if k == 0 {
		k = 1
	}
	return &Bloom{
		bits:  make([]uint64, (m+63)/64),
		nbits: m,
		k:     k,
	}, nil
}

// MustBloom is NewBloom that panics on error.
func MustBloom(expectedItems uint64, fpRate float64) *Bloom {
	b, err := NewBloom(expectedItems, fpRate)
	if err != nil {
		panic(err)
	}
	return b
}

// hashes derives the double-hashing pair from one FNV pass: h2 is a
// splitmix64 finalisation of h1 (odd, so the stride cycles every
// position). One pass over the bytes instead of two — this is the
// ingest hot path via the segment zone maps. No filter is ever written
// to disk (zone maps are rebuilt from the rows on recovery), so the bit
// layout may change freely.
func hashes(item []byte) (h1, h2 uint64) {
	h1 = fnv64a(0, item)
	return h1, deriveH2(h1)
}

// deriveH2 is the shared splitmix64 finalisation behind hashes and
// hashesString — one implementation, so the byte and string paths
// cannot drift and AddString([s]) always hits Add([]byte(s))'s bits.
func deriveH2(h1 uint64) uint64 {
	z := h1 + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return (z ^ (z >> 31)) | 1
}

// reduce maps a 64-bit hash onto [0, n) without the division a modulo
// costs (Lemire's multiply-shift: the high word of h×n is uniform when
// h is).
func reduce(h, n uint64) uint64 {
	hi, _ := bits.Mul64(h, n)
	return hi
}

// Add inserts item.
func (b *Bloom) Add(item []byte) {
	h1, h2 := hashes(item)
	for i := uint32(0); i < b.k; i++ {
		pos := reduce(h1+uint64(i)*h2, b.nbits)
		b.bits[pos/64] |= 1 << (pos % 64)
	}
	b.added++
}

// MayContain reports whether item was possibly added. False means
// definitely not added.
func (b *Bloom) MayContain(item []byte) bool {
	h1, h2 := hashes(item)
	for i := uint32(0); i < b.k; i++ {
		pos := reduce(h1+uint64(i)*h2, b.nbits)
		if b.bits[pos/64]&(1<<(pos%64)) == 0 {
			return false
		}
	}
	return true
}

// Added returns the number of Add calls.
func (b *Bloom) Added() uint64 { return b.added }

// Bytes returns the approximate memory footprint.
func (b *Bloom) Bytes() int { return 8 * len(b.bits) }

// hashesString is hashes for a string key, avoiding the []byte
// conversion on the ingest hot path.
func hashesString(s string) (h1, h2 uint64) {
	h1 = fnv64aString(s)
	return h1, deriveH2(h1)
}

// AddString is Add for a string key. Identical bit positions to
// Add([]byte(s)).
func (b *Bloom) AddString(s string) {
	h1, h2 := hashesString(s)
	for i := uint32(0); i < b.k; i++ {
		pos := reduce(h1+uint64(i)*h2, b.nbits)
		b.bits[pos/64] |= 1 << (pos % 64)
	}
	b.added++
}

// MayContainString is MayContain for a string key.
func (b *Bloom) MayContainString(s string) bool {
	h1, h2 := hashesString(s)
	for i := uint32(0); i < b.k; i++ {
		pos := reduce(h1+uint64(i)*h2, b.nbits)
		if b.bits[pos/64]&(1<<(pos%64)) == 0 {
			return false
		}
	}
	return true
}
