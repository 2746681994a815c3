package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fungusdb/internal/query"
)

// perLayer is every layer metric a traced run reports, named
// <module>.<metric>. They carry no bound: they say where an end-to-end
// change came from. The same list is in BENCHMARK.json.
var perLayer = []metricDef{
	{Name: "client.self_us_p50", Unit: "us", Better: "lower"},
	{Name: "server.self_us_p50", Unit: "us", Better: "lower"},
	{Name: "server.bytes_out_per_row", Unit: "B", Better: "lower"},
	{Name: "server.insert_self_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.execute_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.execute_us_p95", Unit: "us", Better: "lower"},
	{Name: "core.prepare_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.plan_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.allocs_per_query", Unit: "count", Better: "lower"},
	{Name: "core.alloc_bytes_per_row_out", Unit: "B", Better: "lower"},
	{Name: "core.rows_scanned_per_row_out", Unit: "ratio", Better: "lower"},
	{Name: "core.insert_batch_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.tick_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.tick_us_p95", Unit: "us", Better: "lower"},
	{Name: "core.rotted_per_tick", Unit: "count", Better: "lower"},
	{Name: "core.lock_wait_est_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.lock_wait_est_us_p95", Unit: "us", Better: "lower"},
	{Name: "core.checkpoint_s", Unit: "s", Better: "lower"},
	{Name: "core.compact_us", Unit: "us", Better: "lower"},
	{Name: "core.recovery_s", Unit: "s", Better: "lower"},
	{Name: "query.parse_us_p50", Unit: "us", Better: "lower"},
	{Name: "query.plan_us_p50", Unit: "us", Better: "lower"},
	{Name: "query.bind_us_p50", Unit: "us", Better: "lower"},
	{Name: "query.vectorized_share", Unit: "ratio", Better: "higher"},
	{Name: "storage.scan_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "storage.batches_per_query", Unit: "count", Better: "lower"},
	{Name: "storage.segments_pruned_per_query", Unit: "count", Better: "higher"},
	{Name: "storage.tuples_skipped_per_query", Unit: "count", Better: "higher"},
	{Name: "storage.insert_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "storage.bytes_per_live_row", Unit: "B", Better: "lower"},
	{Name: "fungus.tick_ns_per_live_row", Unit: "ns", Better: "lower"},
	{Name: "wal.append_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "wal.bytes_per_rec", Unit: "B", Better: "lower"},
	{Name: "wal.bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "wal.sync_us_p50", Unit: "us", Better: "lower"},
	{Name: "wal.group_size_avg", Unit: "count", Better: "higher"},
	{Name: "wal.group_commits_per_krow", Unit: "count", Better: "lower"},
	{Name: "wal.checkpoint_s", Unit: "s", Better: "lower"},
	{Name: "wal.recover_s", Unit: "s", Better: "lower"},
	{Name: "tuple.encode_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "tuple.decode_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "ingest.pipeline_rows_per_s", Unit: "rows/s", Better: "higher"},
	{Name: "ingest.queue_dropped", Unit: "count", Better: "lower"},
	{Name: "proc.query_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.peak_heap_mb", Unit: "MiB", Better: "lower"},
	{Name: "proc.gc_pause_ms_total", Unit: "ms", Better: "lower"},
	{Name: "proc.tracing_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "gen.sched_lag_p95_ms", Unit: "ms", Better: "lower"},
}

// The rungs of the ladder, outside in. The program is not touched: each
// rung calls one public boundary with the same seeded requests, and a
// layer's self time is its rung minus the rung below.
const (
	rungClient  = 1 // pkg/client over loopback
	rungServer  = 2 // Server.ServeHTTP into a discarding ResponseWriter
	rungCore    = 3 // Table.Prepare, PreparedQuery.Execute, drain query.Rows
	rungQuery   = 4 // query.ParseStatement, Statement.Plan, Plan.Bind
	rungStorage = 5 // standalone storage, fungus, wal, tuple, ingest
)

// span is one timed call.
type span struct {
	Name   string `json:"name"`
	Rung   int    `json:"rung"`
	Parent int    `json:"parent_rung"` // the rung whose call contains this one in a real request
	Req    int    `json:"req"`         // the same request has the same id at every rung
	Class  string `json:"class,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0    time.Time
	on    bool
	spans []span
}

// time runs fn as one span and returns its duration in microseconds.
func (r *recorder) time(name string, rung, req int, class string, fn func()) float64 {
	from := time.Now()
	fn()
	end := time.Now()
	if r.on {
		r.spans = append(r.spans, span{Name: name, Rung: rung, Parent: rung - 1, Req: req, Class: class,
			Start: int64(from.Sub(r.t0)), End: int64(end.Sub(r.t0))})
	}
	return float64(end.Sub(from)) / 1e3
}

// discard is the ResponseWriter of rung 2: it counts bytes and drops
// them, so no socket and no client are in the measurement.
type discard struct {
	h      http.Header
	n      int64
	status int
}

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) Write(p []byte) (int, error) { d.n += int64(len(p)); return len(p), nil }
func (d *discard) WriteHeader(status int)      { d.status = status }
func (d *discard) Flush()                      {}

// serve sends one request through Server.ServeHTTP.
func (inst *instance) serve(path string, body []byte) *discard {
	w := &discard{h: http.Header{}, status: http.StatusOK}
	inst.srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return w
}

// classLadder is what replaying one statement class at every rung gave.
type classLadder struct {
	name    string
	adhoc   bool
	weight  float64 // share of the workload's requests, per replayed request
	untrace []float64
	r1, r2  []float64 // microseconds per request, same order at every rung
	r3      []float64
	prepare []float64
	parse   []float64
	plan    []float64
	bind    []float64
	rowsOut int64
	bytes   int64
	scanned int64
	mallocs uint64
	allocB  uint64
	batches uint64
	vecRows uint64
	pruned  uint64
	skipped uint64
	n       int
}

// ladder is one traced run.
type ladder struct {
	inst    *instance
	rec     *recorder
	m       map[string]float64
	tally   tally
	classes []*classLadder
	warn    []string
}

func runLadder(w *workload, in *inputs, cfg config, res *workloadResult) error {
	inst, err := setUp(w, in, cfg)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer inst.tearDown()
	ld := &ladder{inst: inst, rec: &recorder{t0: time.Now(), on: true}, m: map[string]float64{}}
	ld.tally.add(inst.checks)

	ld.loadPhase()
	if err := ld.queryRungs(); err != nil {
		return err
	}
	if err := ld.writeRungs(); err != nil {
		return err
	}
	if err := ld.lockWait(); err != nil {
		return err
	}
	if err := ld.components(); err != nil {
		return err
	}
	if err := ld.durable(); err != nil {
		return err
	}
	ld.mergeClasses()
	ld.printBudget()

	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, "trace-"+w.name+".json")
	data, err := json.Marshal(map[string]any{"workload": w.name, "seed": cfg.seed, "spans": ld.rec.spans})
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("  %d spans written to %s\n", len(ld.rec.spans), path)

	res.Attempted, res.Failed, res.Failures = ld.tally.attempted, ld.tally.failed, ld.tally.notes
	res.FailShare = float64(res.Failed) / float64(max(res.Attempted, 1))
	res.Warnings = ld.warn
	res.PhaseS = phaseLength(cfg).Seconds() / 4
	for _, d := range perLayer {
		res.Metrics[d.Name] = value{Value: ld.m[d.Name], Unit: d.Unit, Better: d.Better}
	}
	return nil
}

// loadPhase runs the workload's normal traffic, untraced, for a quarter
// of the phase, with a sampler beside it: the process-level diagnostics
// that do not repeat well enough to be end-to-end metrics.
func (ld *ladder) loadPhase() {
	d := phaseLength(ld.inst.cfg) / 4
	var peak atomic.Uint64
	var late []float64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		const every = 20 * time.Millisecond
		var ms runtime.MemStats
		for next := time.Now(); ; next = next.Add(every) {
			late = append(late, float64(time.Since(next))/1e6)
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak.Load() {
				peak.Store(ms.HeapAlloc)
			}
			select {
			case <-stop:
				return
			case <-time.After(time.Until(next.Add(every))):
			}
		}
	}()
	ph := ld.inst.runPhase(d)
	close(stop)
	wg.Wait()
	ld.tally.add(ph.tally)
	ld.m["proc.query_p99_ms"] = quantileOf(durMS(ph.all()), 0.99)
	ld.m["proc.peak_heap_mb"] = float64(peak.Load()) / (1 << 20)
	ld.m["proc.gc_pause_ms_total"] = float64(ph.gcPauseNS) / 1e6
	// An open loop reports how late it sent; a closed loop has no
	// schedule, so the sampler's own timer lateness stands in: both say
	// whether this process got the CPU when it asked.
	if len(ph.lagMS) > 0 {
		late = ph.lagMS
	}
	ld.m["gen.sched_lag_p95_ms"] = quantileOf(late, 0.95)
	if len(ph.lagMS) > 0 {
		ld.tally.attempted++
		if msg := lagWarning(ld.inst.w, ld.m["gen.sched_lag_p95_ms"]); msg != "" {
			ld.tally.fail("%s", msg)
		}
	}
}

// mixShare is class ci's share of the workload's requests.
func (inst *instance) mixShare(ci int) float64 {
	n := 0
	for _, c := range inst.in.cycle {
		if c == ci {
			n++
		}
	}
	return float64(n) / float64(len(inst.in.cycle))
}

// queryRungs replays every statement class, single-threaded, at rungs 1
// to 4 with the same seeded parameter sequence.
func (ld *ladder) queryRungs() error {
	inst, rec := ld.inst, ld.rec
	in := inst.in
	cn := inst.conns[0]
	hits0, miss0, _ := inst.tbl.PlanCacheStats()
	for ci := range in.classes {
		cl := &in.classes[ci]
		if cl.consume {
			continue // a consume eats its own matches, so no two rungs see the same table
		}
		n := scaled(cl.ladderN, inst.cfg.scale, 3)
		c := &classLadder{name: cl.name, adhoc: cl.adhoc, n: n, weight: inst.mixShare(ci) / float64(n)}
		ld.classes = append(ld.classes, c)
		id := func(k int) int { return ci*100000 + k }

		// Rung 1, each request once with the recorder off and once with
		// it on, in alternating order: the difference is what tracing
		// costs.
		for k := 0; k < n; k++ {
			for pass := 0; pass < 2; pass++ {
				rec.on = pass == k%2
				var err error
				var rows int
				us := rec.time("client.Query", rungClient, id(k), cl.name, func() { _, rows, err = inst.httpQuery(cn, ci, k, false) })
				ld.tally.attempted++
				if err != nil {
					ld.tally.fail("rung 1 %s: %v", cl.name, err)
				}
				if rec.on {
					c.r1 = append(c.r1, us)
					c.rowsOut += int64(rows)
				} else {
					c.untrace = append(c.untrace, us)
				}
			}
		}
		rec.on = true

		// Rung 2: the same requests as the server sees them.
		for k := 0; k < n; k++ {
			text, params := cl.request(k)
			req := map[string]any{"sql": text}
			if !cl.adhoc {
				req = map[string]any{"handle": cn.stmts[ci].Handle, "params": params}
			}
			body, err := json.Marshal(req)
			if err != nil {
				return err
			}
			var w *discard
			c.r2 = append(c.r2, rec.time("server.ServeHTTP", rungServer, id(k), cl.name, func() { w = inst.serve("/v2/query", body) }))
			c.bytes += w.n
			ld.tally.attempted++
			if w.status != http.StatusOK {
				ld.tally.fail("rung 2 %s: status %d", cl.name, w.status)
			}
		}

		// Rung 3: in process. MemStats and StoreStats bracket the whole
		// class, single-threaded, so the counts are exact.
		var ms0, ms1 runtime.MemStats
		st0 := inst.tbl.StoreStats()
		runtime.ReadMemStats(&ms0)
		for k := 0; k < n; k++ {
			var err error
			var scanned int
			c.r3 = append(c.r3, rec.time("core.Execute", rungCore, id(k), cl.name, func() { _, scanned, err = inst.inProcess(ci, k, false) }))
			c.scanned += int64(scanned)
			ld.tally.attempted++
			if err != nil {
				ld.tally.fail("rung 3 %s: %v", cl.name, err)
			}
		}
		runtime.ReadMemStats(&ms1)
		st1 := inst.tbl.StoreStats()
		c.mallocs, c.allocB = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
		c.batches, c.vecRows = st1.BatchesScanned-st0.BatchesScanned, st1.RowsVectorized-st0.RowsVectorized
		c.pruned, c.skipped = st1.SegsPruned-st0.SegsPruned, st1.TuplesSkipped-st0.TuplesSkipped

		// Table.Prepare alone (a plan-cache hit for a prepared class, a
		// miss for ad-hoc text), then rung 4: its three steps.
		for k := 0; k < n; k++ {
			text, params := cl.request(k)
			var err error
			c.prepare = append(c.prepare, rec.time("core.Prepare", rungCore, id(k), cl.name, func() { _, err = inst.tbl.Prepare(text) }))
			var stmt *query.Statement
			var plan *query.Plan
			c.parse = append(c.parse, rec.time("query.ParseStatement", rungQuery, id(k), cl.name, func() { stmt, err = query.ParseStatement(text) }))
			if err == nil {
				c.plan = append(c.plan, rec.time("query.Plan", rungQuery, id(k), cl.name, func() { plan, err = stmt.Plan(in.schema) }))
			}
			if err == nil {
				c.bind = append(c.bind, rec.time("query.Bind", rungQuery, id(k), cl.name, func() { _, err = plan.Bind(toValues(params)) }))
			}
			ld.tally.attempted++
			if err != nil {
				ld.tally.fail("rung 4 %s: %v", cl.name, err)
			}
		}
	}
	hits1, miss1, _ := inst.tbl.PlanCacheStats()
	if d := float64(hits1 - hits0 + miss1 - miss0); d > 0 {
		ld.m["core.plan_cache_hit_ratio"] = float64(hits1-hits0) / d
	}
	return nil
}

// mergeClasses weights the per-class samples back to the workload's mix
// and fills the query-side layer metrics.
func (ld *ladder) mergeClasses() {
	var clientSelf, serverSelf, exec, prep, parse, plan, bind []weighted
	var overhead, mix float64
	var rows, bytes, scanned, mallocs, allocB, batches, vec, pruned, skipped, queries float64
	for _, c := range ld.classes {
		for k := 0; k < c.n; k++ {
			clientSelf = append(clientSelf, weighted{c.r1[k] - c.r2[k], c.weight})
			serverSelf = append(serverSelf, weighted{c.r2[k] - c.r3[k], c.weight})
			exec = append(exec, weighted{c.r3[k], c.weight})
		}
		// Tracing overhead is taken class by class, the same requests with
		// the recorder on and off, and then mixed: the median of a mix of
		// fast and slow classes moves with which class it lands in.
		share := c.weight * float64(c.n)
		overhead += share * (median(c.r1)/median(c.untrace) - 1)
		mix += share
		for _, p := range []struct {
			dst *[]weighted
			src []float64
		}{{&prep, c.prepare}, {&parse, c.parse}, {&plan, c.plan}, {&bind, c.bind}} {
			for _, v := range p.src {
				*p.dst = append(*p.dst, weighted{v, c.weight})
			}
		}
		w := c.weight // per replayed request, so sums over a class scale to its share of the mix
		rows += w * float64(c.rowsOut)
		bytes += w * float64(c.bytes)
		scanned += w * float64(c.scanned)
		mallocs += w * float64(c.mallocs)
		allocB += w * float64(c.allocB)
		batches += w * float64(c.batches)
		vec += w * float64(c.vecRows)
		pruned += w * float64(c.pruned)
		skipped += w * float64(c.skipped)
		queries += w * float64(c.n)
	}
	m := ld.m
	m["client.self_us_p50"] = weightedQuantile(clientSelf, 0.5)
	m["server.self_us_p50"] = weightedQuantile(serverSelf, 0.5)
	m["core.execute_us_p50"] = weightedQuantile(exec, 0.5)
	m["core.execute_us_p95"] = weightedQuantile(exec, 0.95)
	m["core.prepare_us_p50"] = weightedQuantile(prep, 0.5)
	m["query.parse_us_p50"] = weightedQuantile(parse, 0.5)
	m["query.plan_us_p50"] = weightedQuantile(plan, 0.5)
	m["query.bind_us_p50"] = weightedQuantile(bind, 0.5)
	if mix > 0 {
		m["proc.tracing_overhead_pct"] = 100 * overhead / mix
	}
	if queries > 0 {
		m["core.allocs_per_query"] = mallocs / queries
		m["storage.batches_per_query"] = batches / queries
		m["storage.segments_pruned_per_query"] = pruned / queries
		m["storage.tuples_skipped_per_query"] = skipped / queries
	}
	if rows > 0 {
		m["server.bytes_out_per_row"] = bytes / rows
		m["core.alloc_bytes_per_row_out"] = allocB / rows
		m["core.rows_scanned_per_row_out"] = scanned / rows
	}
	if scanned > 0 {
		m["query.vectorized_share"] = vec / scanned
	}
}

// printBudget prints, per statement class, where the single-client
// latency goes: rung, p50, self time, share, and what is left over.
func (ld *ladder) printBudget() {
	scanNS := ld.m["storage.scan_ns_per_row"]
	fmt.Printf("\n  latency budget, %s, one client (us)\n", ld.inst.w.name)
	fmt.Println("  class      rung                         p50       self   share")
	for _, c := range ld.classes {
		r1, r2, r3 := median(c.r1), median(c.r2), median(c.r3)
		// Below rung 3: what the statement spends in internal/query per
		// execution, and the floor a bare scan of the rows it examined
		// would cost.
		q := median(c.bind)
		if c.adhoc { // parsed and planned on every execution
			q += median(c.parse) + median(c.plan)
		}
		// The shards are scanned by up to GOMAXPROCS workers at once.
		floor := scanNS * float64(c.scanned) / float64(c.n) / 1e3 / float64(min(shards, runtime.GOMAXPROCS(0)))
		floor = min(floor, r3-q)
		rows := []struct {
			name      string
			p50, self float64
		}{
			{"1 client (HTTP, NDJSON decode)", r1, r1 - r2},
			{"2 server (JSON, encode, flush)", r2, r2 - r3},
			{"3 core (execute, materialise)", r3, r3 - q - floor},
			{"4 query (parse, plan, bind)", q, q},
			{"5 storage (bare scan floor)", floor, floor},
		}
		var sum float64
		for _, r := range rows {
			sum += r.self
		}
		for i, r := range rows {
			label := ""
			if i == 0 {
				label = c.name
			}
			fmt.Printf("  %-10s %-28s %9.1f %9.1f %6.1f%%\n", label, r.name, r.p50, r.self, 100*r.self/sum)
		}
		// The untraced single-client p50 is the end-to-end figure the
		// self times should add up to.
		e2e := median(c.untrace)
		residual := e2e - sum
		line := fmt.Sprintf("  %-10s untraced p50 %.1f, sum of self %.1f, residual %.1f (%.1f%%)", "", e2e, sum, residual, 100*residual/e2e)
		if residual > 0.15*e2e || residual < -0.15*e2e {
			line += "  WARNING: above 15%"
			ld.warn = append(ld.warn, fmt.Sprintf("class %s: budget residual %.1f%% of the untraced p50", c.name, 100*residual/e2e))
		}
		fmt.Println(line)
	}
}

// writeRungs replays the insert/tick schedule on the table at rungs 2
// and 3: ServeHTTP(POST rows) against Table.InsertBatch, and the decay
// tick at the table's steady state. A workload whose clients never write
// has no such schedule: its write-side metrics are 0 and its table stays
// as it was loaded.
func (ld *ladder) writeRungs() error {
	inst, rec := ld.inst, ld.rec
	ld.m["core.compact_us"] = rec.time("core.Compact", rungCore, 900000, "", func() { inst.tbl.Compact() })
	if n := inst.tbl.Len(); n > 0 {
		ld.m["storage.bytes_per_live_row"] = float64(inst.tbl.Bytes()) / float64(n)
	}
	if !inst.w.writes() {
		return nil
	}
	rounds := scaled(20, inst.cfg.scale, 2)
	var httpUS, coreUS, tickUS []float64
	rotted := 0
	req := 900000
	for r := 0; r < rounds; r++ {
		for b := 0; b < inst.w.tickEvery; b++ {
			req++
			batch := inst.nextPoolBatch()
			if b%2 == 0 {
				body, err := json.Marshal(map[string]any{"rows": batch})
				if err != nil {
					return err
				}
				var w *discard
				httpUS = append(httpUS, rec.time("server.ServeHTTP(rows)", rungServer, req, "insert", func() {
					w = inst.serve("/v1/tables/"+tableName+"/rows", body)
				}))
				inst.pollMeter()
				ld.tally.attempted++
				if w.status != http.StatusOK {
					ld.tally.fail("rung 2 insert: status %d", w.status)
				}
				continue
			}
			rows := typed(batch)
			var err error
			coreUS = append(coreUS, rec.time("core.InsertBatch", rungCore, req, "insert", func() { _, err = inst.tbl.InsertBatch(rows) }))
			inst.pollMeter()
			ld.tally.attempted++
			if err != nil {
				ld.tally.fail("rung 3 insert: %v", err)
			}
		}
		req++
		var err error
		tickUS = append(tickUS, rec.time("core.Tick", rungCore, req, "tick", func() {
			rep, terr := inst.db.Tick()
			rotted += rep.TotalRot
			err = terr
		}))
		ld.tally.attempted++
		if err != nil {
			ld.tally.fail("tick: %v", err)
		}
	}
	ld.m["core.insert_batch_us_p50"] = median(coreUS)
	ld.m["server.insert_self_us_p50"] = median(httpUS) - median(coreUS)
	ld.m["core.tick_us_p50"] = median(tickUS)
	ld.m["core.tick_us_p95"] = quantileOf(tickUS, 0.95)
	ld.m["core.rotted_per_tick"] = float64(rotted) / float64(rounds)
	inst.conservation(&ld.tally)
	return nil
}

// lockWait estimates what queries lose to writers on the same shards:
// the rung-3 latency of each class while the write schedule runs in
// process, minus the same requests on the idle table. Without a writer
// there is nothing to wait for: 0.
func (ld *ladder) lockWait() error {
	inst := ld.inst
	in := inst.in
	if !inst.w.writes() {
		return nil
	}
	measure := func(name string) []weighted {
		var out []weighted
		for ci := range in.classes {
			cl := &in.classes[ci]
			if cl.consume {
				continue
			}
			n := scaled(cl.ladderN, inst.cfg.scale, 3)
			for k := 0; k < n; k++ {
				us := ld.rec.time(name, rungCore, 800000+ci*1000+k, cl.name, func() {
					if _, _, err := inst.inProcess(ci, k, false); err != nil {
						ld.tally.fail("lock-wait %s: %v", cl.name, err)
					}
				})
				out = append(out, weighted{us, inst.mixShare(ci) / float64(n)})
			}
		}
		return out
	}
	idle := measure("core.Execute(idle)")

	gap := 25 * time.Millisecond // the open loop's 40 batches a second
	if inst.w.writers > 0 {
		gap = 0 // closed-loop writers post back to back
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var werr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 1; ; k++ {
			select {
			case <-stop:
				return
			case <-time.After(gap):
			}
			if _, err := inst.tbl.InsertBatch(typed(inst.nextPoolBatch())); err != nil {
				werr = err
				return
			}
			inst.pollMeter()
			if k%inst.w.tickEvery == 0 {
				if _, err := inst.db.Tick(); err != nil {
					werr = err
					return
				}
			}
		}
	}()
	loaded := measure("core.Execute(writers running)")
	close(stop)
	wg.Wait()
	if werr != nil {
		return fmt.Errorf("lock-wait writer: %w", werr)
	}
	ld.m["core.lock_wait_est_us_p50"] = weightedQuantile(loaded, 0.5) - weightedQuantile(idle, 0.5)
	ld.m["core.lock_wait_est_us_p95"] = weightedQuantile(loaded, 0.95) - weightedQuantile(idle, 0.95)
	return nil
}
