package sketch

import (
	"errors"
	"fmt"
	"math"
)

// CountMin is a count-min sketch: a fixed-size frequency estimator with
// one-sided error. Estimate(x) >= true count, and with probability
// 1-delta the overestimate is at most epsilon * total count.
type CountMin struct {
	width uint32
	depth uint32
	rows  [][]uint64
	total uint64
}

// NewCountMin builds a sketch with the given error bounds: relative
// error epsilon with confidence 1-delta. Both must be in (0, 1).
func NewCountMin(epsilon, delta float64) (*CountMin, error) {
	if epsilon <= 0 || epsilon >= 1 || delta <= 0 || delta >= 1 {
		return nil, fmt.Errorf("sketch: count-min bounds out of range: eps=%v delta=%v", epsilon, delta)
	}
	width := uint32(math.Ceil(math.E / epsilon))
	depth := uint32(math.Ceil(math.Log(1 / delta)))
	if depth == 0 {
		depth = 1
	}
	cm := &CountMin{width: width, depth: depth}
	cm.rows = make([][]uint64, depth)
	for i := range cm.rows {
		cm.rows[i] = make([]uint64, width)
	}
	return cm, nil
}

// Add counts one occurrence of item.
func (c *CountMin) Add(item []byte) { c.AddN(item, 1) }

// AddN counts n occurrences of item.
func (c *CountMin) AddN(item []byte, n uint64) {
	for i := uint32(0); i < c.depth; i++ {
		slot := fnv64a(uint64(i), item) % uint64(c.width)
		c.rows[i][slot] += n
	}
	c.total += n
}

// Estimate returns the estimated count of item (never underestimates).
func (c *CountMin) Estimate(item []byte) uint64 {
	est := uint64(math.MaxUint64)
	for i := uint32(0); i < c.depth; i++ {
		slot := fnv64a(uint64(i), item) % uint64(c.width)
		if c.rows[i][slot] < est {
			est = c.rows[i][slot]
		}
	}
	return est
}

// Total returns the number of additions (with multiplicity).
func (c *CountMin) Total() uint64 { return c.total }

// Merge folds other into c. The sketches must have identical shape.
func (c *CountMin) Merge(other *CountMin) error {
	if c.width != other.width || c.depth != other.depth {
		return errors.New("sketch: count-min shape mismatch")
	}
	for i := range c.rows {
		for j := range c.rows[i] {
			c.rows[i][j] += other.rows[i][j]
		}
	}
	c.total += other.total
	return nil
}

// Bytes returns the approximate memory footprint of the sketch.
func (c *CountMin) Bytes() int {
	return int(c.width) * int(c.depth) * 8
}
