package main

import (
	"math"
	"sort"
)

// sample is one timed client operation: when it completed (offset from
// the phase start) and how long it took, both in nanoseconds, and how
// many rows it moved.
type sample struct {
	end  int64
	dur  int64
	rows int64
}

// quantile interpolates the q-quantile of an ascending slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(pos)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// quantileOf sorts a copy of v and returns its q-quantile.
func quantileOf(v []float64, q float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, q)
}

func median(v []float64) float64 { return quantileOf(v, 0.5) }

// quartiles returns the first and third quartile by the exclusive
// method, as Python's statistics.quantiles(n=4) gives them.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p*float64(len(s)+1) - 1
		if pos < 0 {
			return s[0]
		}
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.75)
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median — the steadiness figure the acceptance check
// uses. NaN below four values.
func quartileSpread(v []float64) float64 {
	if len(v) < 4 || median(v) == 0 {
		return math.NaN()
	}
	q1, q3 := quartiles(v)
	return math.Abs(q3-q1) / math.Abs(median(v))
}

// durMS converts sample durations to milliseconds.
func durMS(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(s.dur) / 1e6
	}
	return out
}

// chunk is a run of consecutive operations of a phase, in completion
// order, and the stretch of the phase they completed in.
type chunk struct {
	samples  []sample
	from, to int64 // offsets from the phase start, ns
}

// split orders a phase's operations by completion and cuts them into at
// most ten chunks of equal count, each at least 40 long (so a p95 never
// rests on a handful of values). The first chunk starts with the phase.
func split(samples []sample) []chunk {
	s := append([]sample(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i].end < s[j].end })
	k := min(max(len(s)/40, 1), 10)
	out := make([]chunk, 0, k)
	var from int64
	for i := 0; i < k; i++ {
		c := chunk{samples: s[i*len(s)/k : (i+1)*len(s)/k], from: from}
		c.to = c.samples[len(c.samples)-1].end
		out = append(out, c)
		from = c.to
	}
	return out
}

// quietest keeps the three chunks in ten that cost least. What disturbs
// a run on a shared box — a neighbour on the memory bus, a burst of host
// I/O — only ever makes the program slower, and lasts seconds, so the
// best third of a phase says how fast the program is when left alone,
// where the median chunk says how busy the box was. A regression slows
// every chunk and shows in the best ones too.
func quietest(chs []chunk, cost func(chunk) float64) []chunk {
	s := append([]chunk(nil), chs...)
	sort.SliceStable(s, func(i, j int) bool { return cost(s[i]) < cost(s[j]) })
	return s[:(len(s)*3+9)/10]
}

// quietQuantile is the q-quantile of the latencies in the quietest
// chunks, ranked by their median latency.
func quietQuantile(samples []sample, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	var ms []float64
	for _, c := range quietest(split(samples), func(c chunk) float64 { return quantileOf(durMS(c.samples), 0.5) }) {
		ms = append(ms, durMS(c.samples)...)
	}
	return quantileOf(ms, q)
}

// count is the operations of a chunk, or with byRows the rows they moved.
func (c chunk) count(byRows bool) float64 {
	if !byRows {
		return float64(len(c.samples))
	}
	var rows int64
	for _, x := range c.samples {
		rows += x.rows
	}
	return float64(rows)
}

// quietRate is operations (or rows) per second over the quietest
// chunks, ranked by that rate.
func quietRate(samples []sample, byRows bool) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	var n, ns float64
	for _, c := range quietest(split(samples), func(c chunk) float64 { return -c.count(byRows) / float64(c.to-c.from) }) {
		n += c.count(byRows)
		ns += float64(c.to - c.from)
	}
	return n / (ns / 1e9)
}

// cpuPoint is the process's CPU time at one moment of a phase, both as
// offsets from the phase start in ns.
type cpuPoint struct {
	at, cpu int64
}

// cpuBetween interpolates the CPU time spent between two moments.
func cpuBetween(pts []cpuPoint, from, to int64) float64 {
	at := func(t int64) float64 {
		i := sort.Search(len(pts), func(i int) bool { return pts[i].at >= t })
		switch {
		case i == 0:
			return float64(pts[0].cpu)
		case i == len(pts):
			return float64(pts[len(pts)-1].cpu)
		}
		a, b := pts[i-1], pts[i]
		return float64(a.cpu) + float64(b.cpu-a.cpu)*float64(t-a.at)/float64(b.at-a.at)
	}
	return at(to) - at(from)
}

// quietCPUPerOp is CPU seconds per operation over the quietest chunks,
// ranked by it.
func quietCPUPerOp(samples []sample, pts []cpuPoint) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	perOp := func(c chunk) float64 { return cpuBetween(pts, c.from, c.to) / float64(len(c.samples)) }
	var ops, ns float64
	for _, c := range quietest(split(samples), perOp) {
		ops += float64(len(c.samples))
		ns += cpuBetween(pts, c.from, c.to)
	}
	return ns / 1e9 / ops
}

// weighted is one observation with a mixing weight; the traced ladder
// replays each statement class a different number of times and weights
// its samples back to the workload's own class mix.
type weighted struct {
	v, w float64
}

// geoMean is the weighted geometric mean: an observation that grows by
// a factor f moves it by f to the power of its share of the weight,
// whatever its size.
func geoMean(obs []weighted) float64 {
	var sum, total float64
	for _, o := range obs {
		sum += o.w * math.Log(o.v)
		total += o.w
	}
	if total == 0 {
		return math.NaN()
	}
	return math.Exp(sum / total)
}

func weightedQuantile(obs []weighted, q float64) float64 {
	if len(obs) == 0 {
		return math.NaN()
	}
	s := append([]weighted(nil), obs...)
	sort.Slice(s, func(i, j int) bool { return s[i].v < s[j].v })
	var total float64
	for _, o := range s {
		total += o.w
	}
	var acc float64
	for _, o := range s {
		acc += o.w
		if acc >= q*total {
			return o.v
		}
	}
	return s[len(s)-1].v
}
