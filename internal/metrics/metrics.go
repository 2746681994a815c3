// Package metrics measures the health of a decaying relation. The paper
// declares a database "in optimal health condition if you regularly can
// turn rotting portions into summaries for later consumption"; this
// package turns that sentence into numbers: freshness profiles over the
// extent, rot-spot series along the time axis, and a capture-rate health
// score relating knowledge distilled to data lost.
package metrics

import (
	"fmt"
	"strings"

	"fungusdb/internal/storage"
	"fungusdb/internal/tuple"
)

// eachLive calls fn with the ID, freshness and infection flag of every
// live tuple of ss, shard by shard and in ID order within a shard. It
// reads only the system columns of each batch; no attribute is decoded.
func eachLive(ss *storage.ShardedStore, fn func(id tuple.ID, f float64, inf bool)) {
	for i := 0; i < ss.NumShards(); i++ {
		ss.Shard(i).EachBatch(func(b *tuple.Batch) bool {
			tuple.EachSet(b.Live, func(j int) bool {
				fn(b.IDs[j], b.Fs[j], b.Inf[j])
				return true
			})
			return true
		})
	}
}

// FreshnessProfile summarises the freshness distribution of an extent.
type FreshnessProfile struct {
	Live     int
	Bytes    int
	Mean     float64
	Min      float64
	Infected int
	// Deciles[i] counts tuples with freshness in [i/10, (i+1)/10);
	// fully fresh tuples (f == 1) land in the last bucket.
	Deciles [10]int
}

// Profile walks the extent once and returns its freshness profile. The
// caller holds every shard's lock (read is enough).
func Profile(ss *storage.ShardedStore) FreshnessProfile {
	p := FreshnessProfile{Live: ss.Len(), Bytes: ss.Bytes(), Min: 1}
	if p.Live == 0 {
		p.Min = 0
		return p
	}
	var sum float64
	eachLive(ss, func(_ tuple.ID, f float64, inf bool) {
		sum += f
		if f < p.Min {
			p.Min = f
		}
		if inf {
			p.Infected++
		}
		idx := int(f * 10)
		if idx > 9 {
			idx = 9
		}
		p.Deciles[idx]++
	})
	p.Mean = sum / float64(p.Live)
	return p
}

// String renders the profile as a one-line report with a sparkline of
// the decile histogram.
func (p FreshnessProfile) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "live=%d bytes=%d mean=%.3f min=%.3f infected=%d [", p.Live, p.Bytes, p.Mean, p.Min, p.Infected)
	max := 0
	for _, c := range p.Deciles {
		if c > max {
			max = c
		}
	}
	marks := []byte(" .:-=+*#%@")
	for _, c := range p.Deciles {
		if max == 0 {
			b.WriteByte(' ')
			continue
		}
		b.WriteByte(marks[c*(len(marks)-1)/max])
	}
	b.WriteByte(']')
	return b.String()
}

// TimeBucket is the mean freshness of one slice of the insertion-time
// axis — the series experiment E2 charts to show rot spots.
type TimeBucket struct {
	FromID   tuple.ID // first tuple ID covered (inclusive)
	ToID     tuple.ID // last tuple ID covered (inclusive)
	Live     int
	Dead     int // IDs in range with no live tuple
	Mean     float64
	Min      float64
	Infected int
}

// TimeSeries splits the live extent into n equal ID ranges and profiles
// each, exposing where along the time axis the rot spots sit. Returns
// nil for an empty extent. The caller holds every shard's lock (read is
// enough).
func TimeSeries(ss *storage.ShardedStore, n int) []TimeBucket {
	if n <= 0 {
		panic("metrics: bucket count must be positive")
	}
	var first, last tuple.ID
	found := false
	for i := 0; i < ss.NumShards(); i++ {
		lo, ok := ss.Shard(i).FirstLive()
		if !ok {
			continue
		}
		hi, _ := ss.Shard(i).LastLive()
		if !found || lo < first {
			first = lo
		}
		if !found || hi > last {
			last = hi
		}
		found = true
	}
	if !found {
		return nil
	}
	span := uint64(last-first) + 1
	if uint64(n) > span {
		n = int(span)
	}
	buckets := make([]TimeBucket, n)
	width := span / uint64(n)
	extra := span % uint64(n)
	cursor := first
	for i := range buckets {
		w := width
		if uint64(i) < extra {
			w++
		}
		buckets[i].FromID = cursor
		buckets[i].ToID = cursor + tuple.ID(w) - 1
		buckets[i].Min = 1
		cursor += tuple.ID(w)
	}
	var sums []float64 = make([]float64, n)
	eachLive(ss, func(id tuple.ID, f float64, inf bool) {
		// Buckets are contiguous; locate by offset.
		idx := bucketIndex(buckets, id)
		b := &buckets[idx]
		b.Live++
		sums[idx] += f
		if f < b.Min {
			b.Min = f
		}
		if inf {
			b.Infected++
		}
	})
	for i := range buckets {
		b := &buckets[i]
		b.Dead = int(uint64(b.ToID-b.FromID)+1) - b.Live
		if b.Live > 0 {
			b.Mean = sums[i] / float64(b.Live)
		} else {
			b.Min = 0
		}
	}
	return buckets
}

func bucketIndex(buckets []TimeBucket, id tuple.ID) int {
	lo, hi := 0, len(buckets)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if id > buckets[mid].ToID {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Counters aggregates lifetime engine events for one table. The engine
// mutates it under its own lock; readers take a copy via a method that
// holds the same lock, so the struct itself carries no synchronisation.
type Counters struct {
	Inserted       uint64
	Rotted         uint64 // evicted because freshness reached zero
	Consumed       uint64 // evicted by consume-mode queries
	DistilledRot   uint64 // rotted tuples captured in a container first
	DistilledQuery uint64 // consumed tuples captured in a container
	Queries        uint64
	Ticks          uint64
}

// CaptureRate returns the fraction of departed tuples that were
// distilled into knowledge before leaving, the paper's health criterion.
// It returns 1 when nothing has departed (a healthy empty history).
func (c Counters) CaptureRate() float64 {
	departed := c.Rotted + c.Consumed
	if departed == 0 {
		return 1
	}
	return float64(c.DistilledRot+c.DistilledQuery) / float64(departed)
}

// LossRate returns 1 - CaptureRate: the fraction of departed tuples
// whose information rotted away uncaptured.
func (c Counters) LossRate() float64 { return 1 - c.CaptureRate() }

// String renders the counters compactly.
func (c Counters) String() string {
	return fmt.Sprintf("ins=%d rot=%d consumed=%d distilled=%d/%d queries=%d ticks=%d capture=%.2f",
		c.Inserted, c.Rotted, c.Consumed, c.DistilledRot+c.DistilledQuery, c.Rotted+c.Consumed, c.Queries, c.Ticks, c.CaptureRate())
}
