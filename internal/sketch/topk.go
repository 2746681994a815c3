package sketch

import (
	"fmt"
	"sort"
)

// TopK tracks approximate heavy hitters with the Space-Saving algorithm:
// at most k counters, each carrying a count and a maximum possible
// overestimate. Every item with true frequency above Total/k is
// guaranteed to be present.
type TopK struct {
	k        int
	counters map[string]*ssCounter
	total    uint64
}

type ssCounter struct {
	count uint64
	err   uint64 // overestimate upper bound inherited at takeover
}

// NewTopK builds a tracker with at most k counters.
func NewTopK(k int) (*TopK, error) {
	if k <= 0 {
		return nil, fmt.Errorf("sketch: top-k size %d must be positive", k)
	}
	return &TopK{k: k, counters: make(map[string]*ssCounter, k)}, nil
}

// Add observes item.
func (t *TopK) Add(item []byte) {
	t.total++
	key := string(item)
	if c, ok := t.counters[key]; ok {
		c.count++
		return
	}
	if len(t.counters) < t.k {
		t.counters[key] = &ssCounter{count: 1}
		return
	}
	// Replace the minimum counter, inheriting its count as error bound.
	var minKey string
	var minC *ssCounter
	for k2, c := range t.counters {
		if minC == nil || c.count < minC.count || (c.count == minC.count && k2 < minKey) {
			minKey, minC = k2, c
		}
	}
	delete(t.counters, minKey)
	t.counters[key] = &ssCounter{count: minC.count + 1, err: minC.count}
}

// Entry is one reported heavy hitter.
type Entry struct {
	Item  string
	Count uint64 // estimated count (may overestimate by at most Err)
	Err   uint64
}

// Top returns up to n entries ordered by descending estimated count,
// ties broken by item for determinism.
func (t *TopK) Top(n int) []Entry {
	out := make([]Entry, 0, len(t.counters))
	for k2, c := range t.counters {
		out = append(out, Entry{Item: k2, Count: c.count, Err: c.err})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Item < out[j].Item
	})
	if n < len(out) {
		out = out[:n]
	}
	return out
}

// Total returns the number of observations.
func (t *TopK) Total() uint64 { return t.total }

// Bytes returns the approximate memory footprint.
func (t *TopK) Bytes() int {
	n := 64 + 48*len(t.counters)
	for k2 := range t.counters {
		n += len(k2)
	}
	return n
}
