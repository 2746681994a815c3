package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"fungusdb/internal/fanout"
	"fungusdb/internal/query"
	"fungusdb/internal/storage"
	"fungusdb/internal/tuple"
)

// This file is the one execution path of the engine's read side, and
// Prepare is its one way in. Every read — Table.SQL, the HTTP container
// ask handler, the streaming /v2/query, stream monitors, the shell and
// the experiments — prepares a statement into a query.Plan (or fetches
// it from the per-table plan cache) and hands it to execPlan, which
// routes it:
//
//	digest    ask plans: answer from the container digest, no scan
//	consume   all-shard atomic answer-and-discard cut, then finish
//	aggregate per-shard partial aggregators merged in shard order
//	top-k     ORDER BY + LIMIT: per-shard bounded heaps merged k-way
//	stream    per-shard parallel scan k-way merged by ID, pull-based
//	material  barrier peek (ORDER BY / distill / touch-on-read):
//	          collect, then finish
//
// Every route but digest scans through one driver, scanShards: it
// owns the fan-out, the shard locks, the segment verdicts (skip,
// kernel and NaN-check elision), the batch walk, the WHERE kernels,
// the scanned count and early stop, and a route supplies only a
// per-shard sink and its merge — the tuple collector (mergeByID),
// query.BlockWriter (the stream merge), Aggregator.FeedBatch (Merge)
// and TopK.AddBatch (MergeTopK). Stream, aggregate and top-k
// materialise late: WHERE, group keys, aggregate arguments and sort
// keys read the batch's typed column slices, and values are boxed
// only for rows that reach the answer. Every route answers projected
// rows (query.Rows.Values); a caller that wants a whole tuple's
// fields selects `_id, _t, _f, *` (SelectTuples, RowTuple).

// ErrNoContainer reports an ask against a container that does not
// exist (or has rotted away).
var ErrNoContainer = errors.New("core: no such container")

// streamHandOffHook, when set (tests only), runs in a streaming
// producer right after each block it hands to the merge, with the
// producer's shard and the stream's cancellation channel. Tests park
// producers in it to make cancellation observable without timing.
var streamHandOffHook func(shard int, done <-chan struct{})

// topkPeakHook, when set (tests only), receives the total rows
// retained across all per-shard top-k heaps just before the merge —
// the ordered route's peak result-set footprint, O(shards × LIMIT).
var topkPeakHook func(retained int)

// pruneOffHook, when set (tests only), turns off every use of the zone
// maps: every scan visits every segment, and runs every kernel with
// every NaN check — no segment verdict, no top-k axis bound. The
// differential tests compare zone-driven answers against it.
var pruneOffHook bool

// PreparedQuery is a statement compiled against one table: parse and
// validation already happened, so Execute only binds parameters and
// runs. A PreparedQuery is immutable and safe for concurrent use;
// reuse it for repeated queries to skip the compile entirely.
type PreparedQuery struct {
	t    *Table
	plan *query.Plan
}

// Prepare compiles a SELECT statement (see query.ParseSelect for the
// grammar; `?` placeholders bind positionally at Execute) against this
// table. Compilation results are cached per table keyed by source
// text, so preparing the same statement twice is a map hit.
func (t *Table) Prepare(src string) (*PreparedQuery, error) {
	if plan := t.plans.get("s\x00" + src); plan != nil {
		return &PreparedQuery{t: t, plan: plan}, nil
	}
	stmt, err := query.ParseStatement(src)
	if err != nil {
		return nil, err
	}
	return t.compileStatement(stmt)
}

// PrepareStatement compiles an already-parsed statement, for callers
// (the HTTP handlers) that parsed the source themselves to route it to
// a table — a plan-cache miss then compiles without re-parsing.
func (t *Table) PrepareStatement(stmt *query.Statement) (*PreparedQuery, error) {
	if plan := t.plans.get("s\x00" + stmt.Source()); plan != nil {
		return &PreparedQuery{t: t, plan: plan}, nil
	}
	return t.compileStatement(stmt)
}

// compileStatement is the cache-miss half of Prepare/PrepareStatement:
// route check, compile, cache.
func (t *Table) compileStatement(stmt *query.Statement) (*PreparedQuery, error) {
	if stmt.From() != t.name {
		return nil, fmt.Errorf("core: statement reads %q, table is %q", stmt.From(), t.name)
	}
	plan, err := stmt.Plan(t.cfg.Schema)
	if err != nil {
		return nil, err
	}
	t.plans.put("s\x00"+stmt.Source(), plan)
	return &PreparedQuery{t: t, plan: plan}, nil
}

// PrepareAsk compiles a knowledge-container question (see
// query.ParseAskStatement for the forms) against this table's schema.
// Column references and literal operands are validated and coerced at
// compile time; the container itself resolves at Execute, so one
// prepared ask can outlive container churn.
func (t *Table) PrepareAsk(container, question string) (*PreparedQuery, error) {
	key := "a\x00" + container + "\x00" + question
	if plan := t.plans.get(key); plan != nil {
		return &PreparedQuery{t: t, plan: plan}, nil
	}
	stmt, err := query.ParseAskStatement(container, question)
	if err != nil {
		return nil, err
	}
	plan, err := stmt.Plan(t.cfg.Schema)
	if err != nil {
		return nil, err
	}
	t.plans.put(key, plan)
	return &PreparedQuery{t: t, plan: plan}, nil
}

// PlanCacheStats reports the table's compiled-statement cache counters.
func (t *Table) PlanCacheStats() (hits, misses uint64, size int) {
	return t.plans.stats()
}

// Cols returns the prepared statement's output column names.
func (pq *PreparedQuery) Cols() []string { return pq.plan.Cols() }

// NumParams returns how many `?` placeholders Execute must bind.
func (pq *PreparedQuery) NumParams() int { return pq.plan.NumParams() }

// Mode returns the statement's read semantics.
func (pq *PreparedQuery) Mode() query.Mode { return pq.plan.Mode() }

// Execute binds params and runs the plan, streaming the answer as
// query.Rows. Plain peeks stream shard-parallel without materialising
// the answer set; consume, ORDER BY, aggregation and ask answers have
// a natural barrier and are memory-backed. Always Close the rows (or
// drain them): on the streaming path producer goroutines hold shard
// read locks until the stream ends, so abandoning a Rows mid-way — or
// mutating the table from the same goroutine before draining — would
// stall writers on those shards.
func (pq *PreparedQuery) Execute(params ...tuple.Value) (*query.Rows, error) {
	return pq.t.execPlan(pq.plan, params, QueryOpts{})
}

// ExecuteOpts is Execute with per-call engine options (distillation,
// programmatic answer-set cap).
func (pq *PreparedQuery) ExecuteOpts(opt QueryOpts, params ...tuple.Value) (*query.Rows, error) {
	return pq.t.execPlan(pq.plan, params, opt)
}

// execPlan is the single routing point described in the file comment.
func (t *Table) execPlan(plan *query.Plan, params []tuple.Value, opt QueryOpts) (*query.Rows, error) {
	if t.closed.Load() {
		return nil, t.errClosed()
	}
	// Replicas answer peeks only: consuming or distilling would mutate
	// state the leader never shipped, silently forking the replica.
	if t.cfg.ReadOnly && (plan.Consume() || opt.Distill != "") {
		return nil, t.errReadOnly()
	}
	if err := plan.BindCheck(params); err != nil {
		return nil, err
	}
	if plan.IsAsk() {
		return t.execAsk(plan, params)
	}
	// Fold the parameters into the plan as literals once, so the
	// per-tuple hot path below never resolves a placeholder (a
	// `LIMIT ?` value is type-checked and resolved here too).
	if plan.NumParams() > 0 {
		bound, err := plan.Bind(params)
		if err != nil {
			return nil, err
		}
		plan, params = bound, nil
	}
	// late: nothing needs the materialised tuple set (no distillation,
	// no touch-on-read), so a route may materialise late.
	late := opt.Distill == "" && !t.cfg.TouchOnRead
	switch {
	case plan.Consume():
		return t.execConsume(plan, params, opt)
	case plan.Aggregated() && late && opt.Limit == 0:
		// The distributed aggregate sees every match exactly once, so
		// it also needs no programmatic cap (QueryOpts.Limit bounds the
		// tuples aggregated; the SQL LIMIT caps output rows).
		return t.execAggregate(plan, params)
	case !plan.Aggregated() && !plan.Ordered() && late:
		return t.execStream(plan, params, opt)
	case !plan.Aggregated() && plan.Ordered() && plan.Limit() > 0 && late && opt.Limit == 0:
		// Ordered + LIMIT without a reason to materialise: push the
		// sort into per-shard bounded top-k heaps and merge k-way, so
		// peak result memory is O(shards × LIMIT) instead of the whole
		// matching set behind a sort barrier.
		return t.execOrderedTopK(plan)
	default:
		return t.execMaterial(plan, params, opt)
	}
}

// execAsk answers a knowledge-container question. Asking refreshes the
// container — consulted knowledge stays alive.
func (t *Table) execAsk(plan *query.Plan, params []tuple.Value) (*query.Rows, error) {
	name := plan.Ask().Container
	c := t.shelf.Get(name)
	if c == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoContainer, name)
	}
	c.Touch()
	return plan.AskRows(c.Digest, params)
}

// lockRule says who holds shard i's lock while scanShards walks it.
type lockRule int

const (
	lockHeld       lockRule = iota // the caller holds every shard's lock
	lockPerShard                   // the driver read-locks each shard
	lockHandedOver                 // the caller read-locked, the driver releases
)

// scanSink is a route's part of a scanShards walk, called per shard
// i; only take is required. skip returns a segment veto beside the
// WHERE program's root verdict (top-k's Beaten). score, when set, ranks
// shard i's segments best first (storage.Store.ScanRanked), and desc
// runs each segment's batches top down. veto runs before a batch's
// kernels and true stops the walk quietly (a cancelled stream). take
// folds a batch's selected rows; false or an error stops the walk. end
// runs when the walk is over, still under the lock, with the walk's
// error, and returns the shard's.
type scanSink struct {
	skip  func(i int) func(query.ZoneView) bool
	score func(i int) func(query.ZoneView) (float64, bool)
	desc  bool
	veto  func(i int) bool
	take  func(i int, b *tuple.Batch, sel []uint64) (more bool, err error)
	end   func(i int, err error) error
}

// scanShards is the one shard-scan driver of the read side: every
// route's scan fans out here, and each route supplies only a sink and
// merges what the sinks folded. Per shard it walks the live batches in
// insertion order, or best first by the sink's score. Under the lock
// that covers its batches, each segment's zone map arms the shard's
// matcher with the WHERE program's verdicts
// (query.BatchMatcher.Zone): a root none, or the sink's own veto,
// skips the segment, and the batches of a scanned one run only the
// kernels the verdicts leave undecided. Under pruneOffHook no verdict
// is taken and no segment is ranked. The selection goes to sink.take.
// The sink takes a batch's selected rows first; the batch's kernel
// error surfaces only if the sink asked to go on, so a route that stops
// at its limit stops exactly where a row-by-row evaluation would have.
// It returns the live rows of every batch walked, summed over the
// shards, and the lowest shard's error.
//
// The read side's three lock rules live here:
//   - lockHeld: the caller holds every shard's lock (read or write) for
//     the whole call and the driver takes none: material and consume,
//     one cut across all shards (collectAnswer).
//   - lockPerShard: the driver read-locks shard i around its walk, on
//     the table's worker pool: aggregate and top-k.
//   - lockHandedOver: the caller read-locked every shard in index order
//     before the call; the driver releases shard i once its walk and
//     sink.end are done, and runs one goroutine per shard: the stream.
//     A producer blocked on the merge holds its lock while the merge
//     waits on the others; one still to take its lock (or a pool slot)
//     could queue behind a writer waiting on the blocked one — a cycle.
func (t *Table) scanShards(plan *query.Plan, rule lockRule, sink scanSink) (int, error) {
	n := t.store.NumShards()
	workers := t.workers
	if rule == lockHandedOver {
		workers = n
	}
	scanned := make([]int, n)
	err := fanout.Run(n, workers, func(i int) error {
		switch rule {
		case lockPerShard:
			t.shardMu[i].RLock()
			defer t.shardMu[i].RUnlock()
		case lockHandedOver:
			defer t.shardMu[i].RUnlock()
		}
		bm := plan.NewBatchMatcher()
		var skip func(*storage.ZoneMap) bool // a *ZoneMap is a query.ZoneView
		var score func(*storage.ZoneMap) (float64, bool)
		if !pruneOffHook {
			var extra func(query.ZoneView) bool
			if sink.skip != nil {
				extra = sink.skip(i)
			}
			skip = func(z *storage.ZoneMap) bool { return bm.Zone(z) || extra != nil && extra(z) }
			if sink.score != nil {
				rate := sink.score(i)
				score = func(z *storage.ZoneMap) (float64, bool) { return rate(z) }
			}
		}
		var err error
		take := func(b *tuple.Batch) bool {
			scanned[i] += b.Alive
			if sink.veto != nil && sink.veto(i) {
				return false
			}
			sel, _, kerr := bm.Match(b)
			more, serr := sink.take(i, b, sel)
			if err = serr; more && err == nil {
				err = kerr
			}
			return more && err == nil
		}
		if score != nil {
			t.store.ScanShardRanked(i, score, sink.desc, skip, take)
		} else {
			t.store.ScanShardBatches(i, skip, take)
		}
		if sink.end != nil {
			err = sink.end(i, err)
		}
		return err
	})
	total := 0
	for _, s := range scanned {
		total += s
	}
	return total, err
}

// countQuery counts one answered query; failed queries are not queries.
func (t *Table) countQuery() {
	t.mu.Lock()
	t.ctrs.Queries++
	t.mu.Unlock()
}

// collectAnswer is the barrier routes' shared step: collect up to
// opt.Limit (0 = all) of the matching tuples in global ID order, count
// the query, and absorb the answer into opt.Distill's container. The
// caller holds every shard's lock (read suffices).
//
//fungusvet:requires shardlock
func (t *Table) collectAnswer(plan *query.Plan, opt QueryOpts) ([]tuple.Tuple, int, error) {
	limit := opt.Limit
	parts := make([][]tuple.Tuple, t.store.NumShards())
	scanned, err := t.scanShards(plan, lockHeld, scanSink{
		take: func(i int, b *tuple.Batch, sel []uint64) (bool, error) {
			return tuple.EachSet(sel, func(j int) bool {
				parts[i] = append(parts[i], b.Row(j))
				return limit == 0 || len(parts[i]) < limit
			}), nil
		},
	})
	if err != nil {
		return nil, 0, err
	}
	tuples := mergeByID(parts, limit)
	t.countQuery()
	if opt.Distill != "" && len(tuples) > 0 {
		t.mu.Lock()
		err = t.shelf.Absorb(opt.Distill, t.clk.Now(), t.cfg.ContainerHalfLife, tuples)
		t.mu.Unlock()
	}
	if err != nil {
		return nil, 0, err
	}
	return tuples, scanned, nil
}

// selPool recycles the stream producers' selected-row scratch. Each
// slice holds a whole batch, so AppendSet never grows it and the pooled
// pointer keeps naming the same array.
var selPool = sync.Pool{New: func() any {
	sel := make([]int, 0, tuple.BatchRows)
	return &sel
}}

// streamShard is one stream producer: the block it fills and hands to
// the merge over out until done closes, and what it has matched.
type streamShard struct {
	bw      *query.BlockWriter
	out     chan *query.Block
	done    <-chan struct{}
	sel     *[]int // pooled selected-row scratch
	matched int
	aborted bool // the merge cancelled the stream
}

// handOff passes shard i's block being filled to the merge; false
// means the stream was cancelled meanwhile.
func (p *streamShard) handOff(i int) bool {
	b := p.bw.Take()
	select {
	case p.out <- b:
	case <-p.done:
		b.Release()
		p.aborted = true
		return false
	}
	if streamHandOffHook != nil {
		streamHandOffHook(i, p.done)
	}
	return true
}

// execStream is the shard-parallel streaming peek: one producer per
// shard copies the plan's output columns of the matching rows into
// hand-off blocks and passes them over a small bounded channel; the
// returned Rows k-way merges the blocks back into global insertion
// order as the caller pulls. Every shard is read-locked here, before
// any producer runs (scanShards' handed-over rule), so once Execute
// returns the stream waits only on its consumer. Blocks are recycled:
// the merge releases each once the caller has moved past its rows.
func (t *Table) execStream(plan *query.Plan, params []tuple.Value, opt QueryOpts) (*query.Rows, error) {
	n := t.store.NumShards()
	// The programmatic cap and the SQL LIMIT both bound a plain scan's
	// output; the effective cap is the tighter one. Each shard
	// contributes at most limit rows, so it stops scanning there.
	limit := opt.Limit
	if sl := plan.Limit(); sl > 0 && (limit == 0 || sl < limit) {
		limit = sl
	}
	recv := make([]<-chan *query.Block, n)
	prods := make([]streamShard, n)
	done := make(chan struct{})
	for i := range prods {
		out := make(chan *query.Block, 1)
		prods[i] = streamShard{bw: plan.NewBlockWriter(params, limit), out: out, done: done, sel: selPool.Get().(*[]int)}
		recv[i] = out
	}
	sink := scanSink{
		// Poll for cancellation once per batch, before its kernels: a
		// shard mid-way through a matchless stretch (no sends, so no
		// natural done check) must stop once the merge has emitted LIMIT
		// rows or the caller closed the stream. The yield keeps the
		// consumer runnable even when producers saturate every P.
		veto: func(i int) bool {
			select {
			case <-done:
				prods[i].aborted = true
				return true
			default:
			}
			runtime.Gosched()
			return false
		},
		// The selected rows' output columns copy straight from the
		// column views into the hand-off blocks. The batch is the
		// shard's last when it reaches the limit or a row in it fails
		// to project.
		take: func(i int, b *tuple.Batch, bits []uint64) (bool, error) {
			p := &prods[i]
			sel := tuple.AppendSet((*p.sel)[:0], bits)
			last := limit != 0 && p.matched+len(sel) >= limit
			if last {
				sel = sel[:limit-p.matched]
			}
			for len(sel) > 0 {
				took := p.bw.AddBatch(b, sel)
				sel = sel[took:]
				p.matched += took
				if p.bw.Failed() || p.bw.Full() && !p.handOff(i) {
					return false, nil
				}
			}
			return !last, nil
		},
		end: func(i int, err error) error {
			p := &prods[i]
			if err == nil && !p.aborted && p.bw.Len() > 0 {
				p.handOff(i)
			}
			// A block still being filled when the producer stops early
			// never reaches the merge.
			p.bw.Take().Release()
			selPool.Put(p.sel)
			close(p.out)
			return err
		},
	}
	type result struct {
		scanned int
		err     error
	}
	res := make(chan result, 1)
	t.rlockAll()
	go func() {
		scanned, err := t.scanShards(plan, lockHandedOver, sink)
		res <- result{scanned, err}
	}()

	return query.NewStreamRows(query.Stream{
		Cols:   plan.Cols(),
		Mode:   plan.Mode(),
		Blocks: recv,
		Done:   done,
		Wait: func() (int, error) {
			r := <-res
			// Count the query only once the scan ends cleanly, matching
			// the materialised paths.
			if r.err == nil {
				t.countQuery()
			}
			return r.scanned, r.err
		},
		Limit: limit,
	}), nil
}

// execAggregate evaluates an aggregate/GROUP BY peek without
// materialising matches: one partial aggregator per shard folds the
// selected rows off the column slices during the parallel scan (group
// keys and aggregate arguments alike), merged in ascending shard order
// (deterministic for a fixed shard count).
func (t *Table) execAggregate(plan *query.Plan, params []tuple.Value) (*query.Rows, error) {
	aggs := make([]*query.Aggregator, t.store.NumShards())
	for i := range aggs {
		aggs[i] = plan.NewAggregator(params)
	}
	scanned, err := t.scanShards(plan, lockPerShard, scanSink{
		take: func(i int, b *tuple.Batch, sel []uint64) (bool, error) {
			return true, aggs[i].FeedBatch(b, sel)
		},
	})
	if err != nil {
		return nil, err
	}
	for _, agg := range aggs[1:] {
		if err := aggs[0].Merge(agg); err != nil {
			return nil, err
		}
	}
	t.countQuery()
	g, err := aggs[0].Grid()
	if err != nil {
		return nil, err
	}
	return query.NewGridRows(g, query.Peek, scanned), nil
}

// execOrderedTopK answers an ordered, LIMIT-capped peek without a full
// sort barrier: each shard offers its selected rows to a bounded heap
// of k = LIMIT rows that compares sort keys on the column slices and
// materialises only the rows it admits. The per-shard survivors merge
// k-way in (ORDER BY keys, ID) order — the exact total order the
// materialised path's stable sort produces. Peak result memory is
// O(shards × k) no matter how many tuples match.
func (t *Table) execOrderedTopK(plan *query.Plan) (*query.Rows, error) {
	tks := make([]*query.TopK, t.store.NumShards())
	for i := range tks {
		tks[i] = plan.NewTopK()
	}
	sink := scanSink{
		take: func(i int, b *tuple.Batch, sel []uint64) (bool, error) {
			return true, tks[i].AddBatch(b, sel)
		},
		end: func(i int, err error) error {
			if err == nil {
				err = tks[i].Err()
			}
			return err
		},
	}
	// A bare numeric first key ranks each shard's segments best first by
	// the key's zone bounds, so the heap fills with the best candidates
	// first and, once it is full, a segment whose bound cannot beat the
	// worst survivor is skipped. The survivor set does not depend on the
	// visit order (the heap orders totally, ties broken by ID).
	if desc, ok := tks[0].Ranked(); ok {
		sink.skip = func(i int) func(query.ZoneView) bool { return tks[i].Beaten }
		sink.score = func(i int) func(query.ZoneView) (float64, bool) { return tks[i].Score }
		sink.desc = desc
	}
	scanned, err := t.scanShards(plan, lockPerShard, sink)
	if err != nil {
		return nil, err
	}
	if topkPeakHook != nil {
		retained := 0
		for _, tk := range tks {
			retained += tk.Len()
		}
		topkPeakHook(retained)
	}
	rows, err := plan.MergeTopK(tks)
	if err != nil {
		return nil, err
	}
	t.countQuery()
	return query.NewValueRows(plan.Cols(), plan.Mode(), rows, scanned), nil
}

// execMaterial is the barrier peek: collect (and distill) the matching
// set in one cut across all shards under their read locks, apply
// touch-on-read, then run the finishing stages (projection, ORDER BY,
// LIMIT — or local aggregation when the distributed path was
// disqualified).
func (t *Table) execMaterial(plan *query.Plan, params []tuple.Value, opt QueryOpts) (*query.Rows, error) {
	t.rlockAll()
	tuples, scanned, err := t.collectAnswer(plan, opt)
	t.runlockAll()
	if err != nil {
		return nil, err
	}
	if t.cfg.TouchOnRead && len(tuples) > 0 {
		t.touchAnswered(tuples)
	}
	return t.finishRows(plan, params, tuples, scanned)
}

// execConsume is the second natural law behind the prepared API: one
// atomic answer-and-discard cut across all shards, then the finishing
// stages over the (already removed) answer set.
func (t *Table) execConsume(plan *query.Plan, params []tuple.Value, opt QueryOpts) (*query.Rows, error) {
	tuples, scanned, due, err := t.consumeCut(plan, opt)
	if err != nil {
		return nil, err
	}
	if due {
		// Checkpoint re-acquires every shard lock, so it runs after
		// consumeCut released them.
		if err := t.Checkpoint(); err != nil {
			return nil, err
		}
	}
	return t.finishRows(plan, params, tuples, scanned)
}

// finishRows runs the plan's finishing stages over a materialised
// matching set and serves the grid as Rows.
func (t *Table) finishRows(plan *query.Plan, params []tuple.Value, tuples []tuple.Tuple, scanned int) (*query.Rows, error) {
	g, err := plan.Finish(tuples, params)
	if err != nil {
		return nil, err
	}
	return query.NewGridRows(g, plan.Mode(), scanned), nil
}

// consumeCut is the all-shards critical section of a consume query:
// one atomic answer-and-discard cut across the whole extent. It
// reports whether a checkpoint fell due.
func (t *Table) consumeCut(plan *query.Plan, opt QueryOpts) (tuples []tuple.Tuple, scanned int, due bool, err error) {
	t.lockAll()
	defer t.unlockAll()
	if t.closed.Load() {
		return nil, 0, false, t.errClosed()
	}
	tuples, scanned, err = t.collectAnswer(plan, opt)
	if err != nil {
		return nil, 0, false, err
	}
	evictLogged := make([]int, t.store.NumShards())
	for i := range tuples {
		id := tuples[i].ID
		s := t.store.ShardOf(id)
		if err := t.store.Shard(s).Evict(id); err != nil {
			return nil, 0, false, fmt.Errorf("core: consume evict: %w", err)
		}
		if egi, ok := t.fngs[s].(interface{ Forget(tuple.ID) }); ok {
			egi.Forget(id)
		}
		if t.log != nil {
			if err := t.log.AppendEvict(s, id); err != nil {
				return nil, 0, false, err
			}
			evictLogged[s]++
		}
	}
	for s, logged := range evictLogged {
		if logged == 0 {
			continue
		}
		if _, err := t.noteAppendLocked(s, logged); err != nil {
			return nil, 0, false, err
		}
	}
	t.mu.Lock()
	t.ctrs.Consumed += uint64(len(tuples))
	if opt.Distill != "" {
		t.ctrs.DistilledQuery += uint64(len(tuples))
	}
	due = t.noteMutationLocked(1)
	t.mu.Unlock()
	return tuples, scanned, due, nil
}
