package sim

import (
	"fmt"
	"strconv"

	"fungusdb/internal/core"
	"fungusdb/internal/fungus"
	"fungusdb/internal/query"
	"fungusdb/internal/tuple"
	"fungusdb/internal/workload"
)

// Config scales the experiments. Scale 1.0 reproduces the numbers in
// EXPERIMENTS.md; tests run smaller scales for speed.
type Config struct {
	Scale float64
	Seed  int64
	// Shards runs every experiment table with this many extent shards
	// (0/1 = the unsharded engine). Reports stay deterministic for a
	// fixed (Seed, Shards) pair; Shards <= 1 reproduces the pre-sharding
	// engine byte for byte.
	Shards int
	// Workers bounds the engine's fan-out pool (0 = GOMAXPROCS).
	Workers int
}

func (c Config) n(full int) int {
	n := int(float64(full) * c.Scale)
	if n < 8 {
		n = 8
	}
	return n
}

// Runner maps experiment IDs to their functions.
var Runner = map[string]func(Config) *Table{
	"E1": E1ChessBoard,
	"E2": E2RotSpots,
	"E3": E3BlueCheese,
	"E4": E4Consume,
	"E5": E5Distill,
	"E6": E6Extinction,
	"E7": E7Health,
	"E8": E8SteadyState,
	"E9": E9FreshnessTradeoff,
}

// ExperimentIDs lists the experiments in order.
var ExperimentIDs = []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9"}

// newIoTTable builds a DB + IoT table with the given fungus.
func newIoTTable(cfg Config, name string, f fungus.Fungus, distill bool) (*core.DB, *core.Table, *workload.IoT) {
	db, err := core.Open(core.DBConfig{Seed: cfg.Seed, Workers: cfg.Workers})
	if err != nil {
		panic(err)
	}
	gen := workload.NewIoT(100, cfg.Seed)
	tbl, err := db.CreateTable(name, core.TableConfig{
		Schema:       gen.Schema(),
		Fungus:       f,
		Shards:       cfg.Shards,
		DistillOnRot: distill,
	})
	if err != nil {
		panic(err)
	}
	return db, tbl, gen
}

// E1ChessBoard — DESIGN.md "Table 1". The chess-board fable is about
// hoarding: keep every grain and the pile explodes. Under a sustained
// data deluge the no-fungus extent accumulates without bound, while any
// decay law converges to a working set proportional to the ingest rate.
// (A literally doubling rate would not discriminate: the last square
// dominates every arm alike, decayed or not — the fable's own point.)
func E1ChessBoard(cfg Config) *Table {
	const epochs = 12
	ticksPerEpoch := 8
	baseRate := cfg.n(256) // inserts per epoch, constant

	type arm struct {
		name string
		mk   func() fungus.Fungus
	}
	arms := []arm{
		{"none", func() fungus.Fungus { return fungus.Null{} }},
		{"ttl", func() fungus.Fungus { return fungus.TTL{Lifetime: uint64(2 * ticksPerEpoch)} }},
		// Half-life of a quarter epoch: tuples rot (freshness < 1e-3)
		// after ~2.5 epochs, well inside the 12-epoch horizon.
		{"exponential", func() fungus.Fungus { return fungus.HalfLife(float64(ticksPerEpoch) / 4) }},
		{"egi", func() fungus.Fungus {
			return fungus.NewEGI(fungus.EGIConfig{SeedsPerTick: baseRate / ticksPerEpoch, DecayRate: 0.25, AgeBias: 2})
		}},
	}

	names := make([]string, len(arms))
	for i, a := range arms {
		names[i] = a.name
	}
	t := &Table{
		ID:     "E1",
		Title:  "chess-board hoarding: extent size per epoch under sustained ingest",
		Header: append([]string{"epoch", "inserted"}, names...),
		Notes: []string{
			"shape: 'none' accumulates linearly without bound; every fungus plateaus",
		},
	}

	type state struct {
		db  *core.DB
		tbl *core.Table
		gen *workload.IoT
	}
	states := make([]state, len(arms))
	for i, a := range arms {
		db, tbl, gen := newIoTTable(cfg, "iot", a.mk(), false)
		states[i] = state{db, tbl, gen}
	}
	defer func() {
		for _, s := range states {
			s.db.Close()
		}
	}()

	perTick := baseRate / ticksPerEpoch
	if perTick < 1 {
		perTick = 1
	}
	totalInserted := 0
	for epoch := 0; epoch < epochs; epoch++ {
		for tick := 0; tick < ticksPerEpoch; tick++ {
			for _, s := range states {
				for i := 0; i < perTick; i++ {
					if _, err := s.tbl.Insert(s.gen.Next()); err != nil {
						panic(err)
					}
				}
				if _, err := s.db.Tick(); err != nil {
					panic(err)
				}
			}
		}
		totalInserted += perTick * ticksPerEpoch
		row := []any{epoch, totalInserted}
		for _, s := range states {
			row = append(row, s.tbl.Len())
		}
		t.Add(row...)
	}
	return t
}

// E2RotSpots — DESIGN.md "Figure 1". One deterministic EGI seed planted
// mid-extent; the per-time-bucket freshness series shows a spot growing
// bi-directionally along the insertion axis.
func E2RotSpots(cfg Config) *Table {
	n := cfg.n(20000)
	egi := fungus.NewEGI(fungus.EGIConfig{SeedsPerTick: 0, DecayRate: 0.05, AgeBias: 2})
	db, tbl, gen := newIoTTable(cfg, "iot", egi, false)
	defer db.Close()
	for i := 0; i < n; i++ {
		if _, err := tbl.Insert(gen.Next()); err != nil {
			panic(err)
		}
	}
	// The hand-planted seed goes into the caller-held EGI instance,
	// which ForShard assigns to shard 0 — round the target ID into
	// shard 0's residue class so the spot grows under any shard count.
	seedID := n / 2
	if cfg.Shards > 1 {
		seedID -= seedID % cfg.Shards
	}
	egi.Seed(tuple.ID(seedID))

	const buckets = 20
	checkpoints := []int{0, n / 200, n / 100, n / 40}
	t := &Table{
		ID:     "E2",
		Title:  "EGI rot spot: freshness mass per time bucket over ticks",
		Header: append([]string{"tick"}, bucketHeaders(buckets)...),
		Notes: []string{
			"mass = sum of live freshness / IDs in bucket; rotted (evicted) IDs count 0",
			"shape: a crater appears at the centre bucket and widens symmetrically",
		},
	}
	tick := 0
	for _, cp := range checkpoints {
		for tick < cp {
			if _, err := db.Tick(); err != nil {
				panic(err)
			}
			tick++
		}
		row := []any{tick}
		for _, b := range tbl.TimeSeries(buckets) {
			span := float64(b.Live + b.Dead)
			mass := 0.0
			if span > 0 {
				mass = b.Mean * float64(b.Live) / span
			}
			row = append(row, mass)
		}
		t.Add(row...)
	}
	return t
}

func bucketHeaders(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = "b" + strconv.Itoa(i)
	}
	return out
}

// E3BlueCheese — DESIGN.md "Table 2". Under EGI the relation "remains
// edible for a long time": answer coverage of a standing query degrades
// gracefully, while TTL falls off a cliff at the retention boundary.
func E3BlueCheese(cfg Config) *Table {
	n := cfg.n(20000)
	horizon := 60 // ticks
	mkArms := func() map[string]fungus.Fungus {
		// Calibrated so both arms remove the whole extent near the end
		// of the horizon: TTL at tick 40 exactly; EGI spread over time.
		return map[string]fungus.Fungus{
			"ttl": fungus.TTL{Lifetime: 40},
			"egi": fungus.NewEGI(fungus.EGIConfig{
				SeedsPerTick: n / 200, DecayRate: 0.1, AgeBias: 1,
			}),
		}
	}

	t := &Table{
		ID:     "E3",
		Title:  "blue cheese: standing-query coverage vs ticks (EGI degrades, TTL cliffs)",
		Header: []string{"tick", "egi_coverage", "ttl_coverage", "egi_meanfresh", "ttl_meanfresh"},
		Notes: []string{
			"coverage = live answer size / original answer size",
			"shape: EGI falls smoothly; TTL holds 1.0 then drops to 0 at its lifetime",
		},
	}

	type armState struct {
		db   *core.DB
		tbl  *core.Table
		base int
	}
	states := map[string]armState{}
	for name, f := range mkArms() {
		db, tbl, gen := newIoTTable(cfg, "iot", f, false)
		for i := 0; i < n; i++ {
			if _, err := tbl.Insert(gen.Next()); err != nil {
				panic(err)
			}
		}
		base, _ := answerFreshness(tbl, " WHERE temp >= 10")
		states[name] = armState{db, tbl, base}
	}
	defer func() {
		for _, s := range states {
			s.db.Close()
		}
	}()

	for tick := 0; tick <= horizon; tick += 5 {
		cov := map[string]float64{}
		fresh := map[string]float64{}
		for name, s := range states {
			n, mass := answerFreshness(s.tbl, " WHERE temp >= 10")
			if s.base > 0 {
				cov[name] = float64(n) / float64(s.base)
			}
			fresh[name] = meanOf(mass, n)
		}
		t.Add(tick, cov["egi"], cov["ttl"], fresh["egi"], fresh["ttl"])
		for i := 0; i < 5; i++ {
			for _, s := range states {
				if _, err := s.db.Tick(); err != nil {
					panic(err)
				}
			}
		}
	}
	return t
}

// answerFreshness peeks at the tuples of tbl matching where (a " WHERE
// ..." clause, or empty for all) and returns the answer size and its
// freshness mass. The mass adds the answer's _f in ID order, as the
// experiments always have, so the figures reproduce bit for bit at any
// shard count; SUM(_f) would add per-shard partial sums instead.
func answerFreshness(tbl *core.Table, where string) (n int, mass float64) {
	g, err := tbl.SQL("SELECT _f FROM " + tbl.Name() + where)
	if err != nil {
		panic(err)
	}
	for _, row := range g.Rows {
		mass += row[0].AsFloat()
	}
	return len(g.Rows), mass
}

// meanOf is mass / n, or 0 for an empty answer.
func meanOf(mass float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return mass / float64(n)
}

// E4Consume — DESIGN.md "Table 3". Law 2 mechanics: consume-mode
// queries shrink the extent by exactly the answer set; repeated answers
// are disjoint; peek baselines return duplicates and leave the extent
// alone.
func E4Consume(cfg Config) *Table {
	n := cfg.n(20000)
	rounds := 8

	t := &Table{
		ID:     "E4",
		Title:  "consume-on-query vs peek over repeated identical queries",
		Header: []string{"round", "mode", "answer", "dup_answers", "extent_after", "answer_bytes"},
		Notes: []string{
			"shape: consume answers shrink to 0 and the extent strictly decreases;",
			"peek answers repeat identically (all duplicates) and the extent is flat",
		},
	}

	for _, mode := range []query.Mode{query.Consume, query.Peek} {
		src := "SELECT _id, * FROM clicks WHERE temp >= 15 AND temp < 25"
		if mode == query.Consume {
			src = "SELECT CONSUME _id, * FROM clicks WHERE temp >= 15 AND temp < 25"
		}
		db, tbl, gen := newIoTTable(cfg, "clicks", fungus.Null{}, false)
		for i := 0; i < n; i++ {
			if _, err := tbl.Insert(gen.Next()); err != nil {
				panic(err)
			}
		}
		seen := map[tuple.ID]bool{}
		for round := 0; round < rounds; round++ {
			g, err := tbl.SQL(src, core.QueryOpts{Limit: n / 16})
			if err != nil {
				panic(err)
			}
			dups, bytes := 0, 0
			for _, row := range g.Rows {
				id := tuple.ID(row[0].AsInt())
				if seen[id] {
					dups++
				}
				seen[id] = true
				bytes += tuple.Tuple{Attrs: row[1:]}.Size()
			}
			t.Add(round, mode.String(), len(g.Rows), dups, tbl.Len(), bytes)
		}
		db.Close()
	}
	return t
}

// E5Distill — DESIGN.md "Table 4". Distilling an extent into a
// knowledge container: footprint shrinks by orders of magnitude while
// count is exact and NDV/quantile/heavy-hitter queries stay accurate.
func E5Distill(cfg Config) *Table {
	n := cfg.n(100000)
	db, err := core.Open(core.DBConfig{Seed: cfg.Seed, Workers: cfg.Workers})
	if err != nil {
		panic(err)
	}
	defer db.Close()
	gen := workload.NewClickstream(5000, 1000, cfg.Seed)
	tbl, err := db.CreateTable("clicks", core.TableConfig{Schema: gen.Schema(), Shards: cfg.Shards})
	if err != nil {
		panic(err)
	}

	exactURL := map[string]int{}
	exactUsers := map[string]bool{}
	var dwells []float64
	for i := 0; i < n; i++ {
		row := gen.Next()
		exactURL[row[1].AsString()]++
		exactUsers[row[0].AsString()] = true
		dwells = append(dwells, float64(row[2].AsInt()))
		if _, err := tbl.Insert(row); err != nil {
			panic(err)
		}
	}
	rawBytes := tbl.Bytes()

	// Consume the whole extent into one container.
	g, err := tbl.SQL("SELECT CONSUME COUNT(*) FROM clicks", core.QueryOpts{Distill: "archive"})
	if err != nil {
		panic(err)
	}
	if g.Rows[0][0].AsInt() != int64(n) || tbl.Len() != 0 {
		panic("E5: consume did not empty the extent")
	}
	d := tbl.Shelf().Get("archive").Digest

	t := &Table{
		ID:     "E5",
		Title:  "distillation fidelity: container vs raw extent",
		Header: []string{"metric", "exact", "container", "rel_err"},
		Notes: []string{
			"shape: footprint shrinks >=10x at full scale; count exact; NDV and quantiles within a few %",
		},
	}
	t.Add("bytes", rawBytes, d.Bytes(), ratio(float64(d.Bytes()), float64(rawBytes)))
	t.Add("count", n, d.Count(), relErr(float64(d.Count()), float64(n)))
	ndv, err := d.NDV("user")
	if err != nil {
		panic(err)
	}
	t.Add("ndv(user)", len(exactUsers), ndv, relErr(float64(ndv), float64(len(exactUsers))))
	for _, q := range []float64{0.5, 0.95} {
		got, err := d.Quantile("dwell_ms", q)
		if err != nil {
			panic(err)
		}
		want := exactQuantile(dwells, q)
		t.Add(fmt.Sprintf("q%g(dwell_ms)", q*100), want, got, relErr(got, want))
	}
	// Heavy hitter recall: are the true top-5 URLs reported in the
	// container's top-10?
	top, err := d.HeavyHitters("url", 10)
	if err != nil {
		panic(err)
	}
	reported := map[string]bool{}
	for _, e := range top {
		reported[e.Item] = true
	}
	hits := 0
	for _, u := range topKeys(exactURL, 5) {
		if reported[u] {
			hits++
		}
	}
	t.Add("top5(url) recall", 5, hits, relErr(float64(hits), 5))
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return 0
	}
	d := (got - want) / want
	if d < 0 {
		return -d
	}
	return d
}

func exactQuantile(data []float64, q float64) float64 {
	cp := append([]float64(nil), data...)
	// insertion of sort here avoids importing sketch just for the helper
	sortFloats(cp)
	if len(cp) == 0 {
		return 0
	}
	pos := q * float64(len(cp)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 < len(cp) {
		return cp[i]*(1-frac) + cp[i+1]*frac
	}
	return cp[i]
}

func topKeys(m map[string]int, k int) []string {
	type kv struct {
		k string
		v int
	}
	all := make([]kv, 0, len(m))
	for key, v := range m {
		all = append(all, kv{key, v})
	}
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			if all[j].v > all[i].v || (all[j].v == all[i].v && all[j].k < all[i].k) {
				all[i], all[j] = all[j], all[i]
			}
		}
	}
	if k > len(all) {
		k = len(all)
	}
	out := make([]string, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].k
	}
	return out
}

func sortFloats(x []float64) {
	// stdlib sort; tiny wrapper keeps the import local to this file
	quickSort(x, 0, len(x)-1)
}

func quickSort(x []float64, lo, hi int) {
	for lo < hi {
		p := x[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for x[i] < p {
				i++
			}
			for x[j] > p {
				j--
			}
			if i <= j {
				x[i], x[j] = x[j], x[i]
				i++
				j--
			}
		}
		if j-lo < hi-i {
			quickSort(x, lo, j)
			lo = i
		} else {
			quickSort(x, i, hi)
			hi = j
		}
	}
}

// E6Extinction — DESIGN.md "Figure 2". Parameter sweep: ticks until the
// first natural law finishes its work ("until it has been completely
// disappeared") as a function of EGI seed and decay rates.
func E6Extinction(cfg Config) *Table {
	n := cfg.n(5000)
	seedRates := []int{1, 4, 16}
	decayRates := []float64{0.05, 0.1, 0.25}

	t := &Table{
		ID:     "E6",
		Title:  "EGI time-to-extinction (ticks) vs seeds/tick and decay rate",
		Header: []string{"seeds_per_tick", "decay_rate", "ticks_to_extinction"},
		Notes: []string{
			"shape: extinction time falls as either rate rises",
		},
	}
	for _, sr := range seedRates {
		for _, dr := range decayRates {
			egi := fungus.NewEGI(fungus.EGIConfig{SeedsPerTick: sr, DecayRate: dr, AgeBias: 2})
			db, tbl, gen := newIoTTable(cfg, "iot", egi, false)
			for i := 0; i < n; i++ {
				if _, err := tbl.Insert(gen.Next()); err != nil {
					panic(err)
				}
			}
			ticks := 0
			for tbl.Len() > 0 && ticks < 1_000_000 {
				if _, err := db.Tick(); err != nil {
					panic(err)
				}
				ticks++
			}
			t.Add(sr, dr, ticks)
			db.Close()
		}
	}
	return t
}

// E7Health — DESIGN.md "Figure 3". The paper's health criterion: sweep
// the distillation period; the more regularly rotting data is cooked
// into summaries, the higher the captured-knowledge rate.
func E7Health(cfg Config) *Table {
	n := cfg.n(4000)
	horizon := 200
	periods := []int{0, 5, 20, 50} // 0 = never distill

	t := &Table{
		ID:     "E7",
		Title:  "health: knowledge capture rate vs distillation period",
		Header: []string{"distill_period", "rotted", "consumed", "captured", "capture_rate"},
		Notes: []string{
			"period 0 = owner never distills: everything rots uncaptured",
			"shape: capture rate rises as the distillation period shrinks",
		},
	}
	for _, period := range periods {
		egi := fungus.NewEGI(fungus.EGIConfig{SeedsPerTick: 4, DecayRate: 0.1, AgeBias: 2})
		db, tbl, gen := newIoTTable(cfg, "iot", egi, false)
		for i := 0; i < n; i++ {
			if _, err := tbl.Insert(gen.Next()); err != nil {
				panic(err)
			}
		}
		for tick := 1; tick <= horizon && tbl.Len() > 0; tick++ {
			if period > 0 && tick%period == 0 {
				// The owner distills the most rotten decile before the
				// fungus finishes it off.
				if _, err := tbl.SQL("SELECT CONSUME COUNT(*) FROM iot WHERE _f < 0.5", core.QueryOpts{Distill: "weekly"}); err != nil {
					panic(err)
				}
			}
			if _, err := db.Tick(); err != nil {
				panic(err)
			}
		}
		c := tbl.Counters()
		t.Add(period, c.Rotted, c.Consumed, c.DistilledRot+c.DistilledQuery, c.CaptureRate())
		db.Close()
	}
	return t
}

// E8SteadyState — DESIGN.md "Table 5". Sustained ingest under each
// fungus: does memory stabilise, and what does decay cost?
func E8SteadyState(cfg Config) *Table {
	perTick := cfg.n(200)
	horizon := 150
	warmup := 100

	arms := []struct {
		name string
		mk   func() fungus.Fungus
	}{
		{"none", func() fungus.Fungus { return fungus.Null{} }},
		{"ttl", func() fungus.Fungus { return fungus.TTL{Lifetime: 20} }},
		{"exponential", func() fungus.Fungus { return fungus.HalfLife(5) }},
		{"egi", func() fungus.Fungus {
			return fungus.NewEGI(fungus.EGIConfig{SeedsPerTick: perTick / 2, DecayRate: 0.2, AgeBias: 2})
		}},
	}

	t := &Table{
		ID:     "E8",
		Title:  "steady state under sustained ingest",
		Header: []string{"fungus", "extent_t50", "extent_t100", "extent_t150", "bounded", "evictions"},
		Notes: []string{
			"shape: 'none' grows linearly forever; every fungus plateaus",
		},
	}
	for _, a := range arms {
		db, tbl, gen := newIoTTable(cfg, "iot", a.mk(), false)
		var e50, e100, e150 int
		for tick := 1; tick <= horizon; tick++ {
			for i := 0; i < perTick; i++ {
				if _, err := tbl.Insert(gen.Next()); err != nil {
					panic(err)
				}
			}
			if _, err := db.Tick(); err != nil {
				panic(err)
			}
			switch tick {
			case 50:
				e50 = tbl.Len()
			case 100:
				e100 = tbl.Len()
			case 150:
				e150 = tbl.Len()
			}
		}
		// Bounded if the extent stopped growing materially after warmup.
		bounded := float64(e150) < 1.2*float64(e100)
		_ = warmup
		t.Add(a.name, e50, e100, e150, bounded, tbl.StoreStats().Evicted)
		db.Close()
	}
	return t
}

// E9FreshnessTradeoff — DESIGN.md "Figure 4". Decay aggressiveness
// trades answer mass (how much a query returns) against answer
// freshness: harsher linear fungi leave fewer survivors whose mean
// freshness floors at 0.5 — the survivor ages are uniform over [0, 1/r]
// once the rot cutoff is active, so the mean cannot drop below it.
func E9FreshnessTradeoff(cfg Config) *Table {
	n := cfg.n(10000)
	age := 20 // ticks of decay before the probe query
	rates := []float64{0.005, 0.01, 0.02, 0.04, 0.08}

	t := &Table{
		ID:     "E9",
		Title:  "answer mass vs mean freshness as decay aggressiveness rises",
		Header: []string{"linear_rate", "answer_size", "answer_mass", "mean_freshness"},
		Notes: []string{
			"answer_mass = sum of freshness over the answer",
			"shape: size and mass fall with the rate; survivor mean freshness",
			"declines toward a 0.5 floor (uniform ages over the shrinking window)",
		},
	}
	for _, rate := range rates {
		db, tbl, gen := newIoTTable(cfg, "iot", fungus.Linear{Rate: rate}, false)
		// Insert continuously while decaying so ages vary.
		perTick := n / age
		for tick := 0; tick < age; tick++ {
			for i := 0; i < perTick; i++ {
				if _, err := tbl.Insert(gen.Next()); err != nil {
					panic(err)
				}
			}
			if _, err := db.Tick(); err != nil {
				panic(err)
			}
		}
		n, mass := answerFreshness(tbl, "")
		t.Add(rate, n, mass, meanOf(mass, n))
		db.Close()
	}
	return t
}
