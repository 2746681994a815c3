package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"

	"fungusdb/internal/query"
	"fungusdb/internal/storage"
	"fungusdb/internal/tuple"
)

// This file is the one execution path of the engine's read side, and
// Prepare is its one way in. Every read — Table.SQL, the HTTP container
// ask handler, the streaming /v2/query, stream monitors, the shell and
// the experiments — prepares a statement into a query.Plan
// (or fetches it from the per-table plan cache) and hands it to execPlan,
// which routes it:
//
//	digest    ask plans: answer from the container digest, no scan
//	consume   all-shard atomic answer-and-discard cut, then finish
//	aggregate per-shard partial aggregators merged in shard order
//	top-k     ORDER BY + LIMIT: per-shard bounded heaps merged k-way
//	stream    per-shard parallel scan k-way merged by ID, pull-based
//	material  barrier peek (ORDER BY / distill / touch-on-read):
//	          collect, then finish
//
// Stream, aggregate and top-k materialise late: WHERE, group keys,
// aggregate arguments and sort keys read the scan batch's typed column
// slices, and values are boxed only for rows that reach the answer.
// Every route answers projected rows (query.Rows.Values); a caller that
// wants a whole tuple's fields selects `_id, _t, _f, *` (SelectTuples,
// RowTuple). New
// capabilities land here once instead of once per front door.

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

// pruneOffHook, when set (tests only), makes every scan visit every
// segment: no zone-map pruning, no top-k axis bound. The differential
// tests compare pruned answers against it.
var pruneOffHook bool

// pruneFn adapts the plan's compiled segment-prune checks to the
// storage scan callback, nil when the plan prunes nothing.
// *storage.ZoneMap satisfies query.ZoneView structurally, so neither
// package imports the other.
func pruneFn(plan *query.Plan) func(*storage.ZoneMap) bool {
	p := plan.Pruner()
	if p == nil || pruneOffHook {
		return nil
	}
	return func(z *storage.ZoneMap) bool { return p.Skip(z) }
}

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
	switch {
	case plan.Consume():
		return t.execConsume(plan, params, opt)
	case plan.Aggregated() && opt.Distill == "" && !t.cfg.TouchOnRead && opt.Limit == 0:
		// The distributed aggregate path sees every match exactly once,
		// so it only applies when nothing needs the materialised tuple
		// set: no distillation, no touch-on-read, and no programmatic
		// answer-set cap (QueryOpts.Limit bounds the tuples aggregated,
		// unlike the SQL LIMIT, which caps output rows and is handled
		// by the aggregator itself).
		return t.execAggregate(plan, params)
	case !plan.Aggregated() && !plan.Ordered() && opt.Distill == "" && !t.cfg.TouchOnRead:
		return t.execStream(plan, params, opt)
	case !plan.Aggregated() && plan.Ordered() && plan.Limit() > 0 &&
		opt.Distill == "" && !t.cfg.TouchOnRead && opt.Limit == 0:
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

// collectMatches gathers up to limit (0 = all) of the tuples matching
// the plan, in global ID order: every shard's scan selects rows
// batch-wise over the columnar segment views, tuples materialise only
// for matches, and the per-shard parts merge by ID. A kernel error only
// surfaces when a shard's scan consumes every selected row before it —
// a limit hit stops first, exactly where a row-by-row evaluation would
// have stopped. The caller holds every shard's lock (read suffices).
//
//fungusvet:requires shardlock
func (t *Table) collectMatches(plan *query.Plan, limit int) (tuples []tuple.Tuple, scanned int, err error) {
	n := t.store.NumShards()
	parts := make([][]tuple.Tuple, n)
	counts := make([]int, n)
	prune := pruneFn(plan)
	err = fanOut(n, t.workers, func(i int) error {
		bm := plan.NewBatchMatcher()
		var matchErr error
		t.store.ScanShardBatches(i, prune, func(b *tuple.Batch) bool {
			counts[i] += b.Alive
			sel, _, kerr := bm.Match(b)
			full := !tuple.EachSet(sel, func(j int) bool {
				parts[i] = append(parts[i], b.Row(j))
				return limit == 0 || len(parts[i]) < limit
			})
			if full {
				return false
			}
			matchErr = kerr
			return kerr == nil
		})
		return matchErr
	})
	if err != nil {
		return nil, 0, err
	}
	for _, c := range counts {
		scanned += c
	}
	return mergeByID(parts, limit), scanned, nil
}

// execStream is the shard-parallel streaming peek: one producer per
// shard scans under that shard's read lock, copies the plan's output
// columns of the matching rows into hand-off blocks and passes them
// over a small bounded channel; the returned Rows k-way merges the
// blocks back into global insertion order as the caller pulls. The
// fan-out deliberately runs one goroutine per shard rather than the
// worker-bounded pool — the merge needs every shard's head block
// before it can emit anything, so capping concurrency below the shard
// count would deadlock; memory stays bounded by the channel buffers,
// and pacing comes from the consumer.
//
// Every shard is read-locked here, in index order, before any producer
// runs, and each producer releases its own lock when it finishes. A
// producer blocked on the merge holds its lock while the merge waits
// on the other shards; had one of those still to take its lock, it
// could queue behind a writer that waits on a reader (rlockAll, another
// stream) which in turn waits on the blocked producer's shard — a
// cycle. Once Execute returns, the stream waits only on its consumer.
func (t *Table) execStream(plan *query.Plan, params []tuple.Value, opt QueryOpts) (*query.Rows, error) {
	n := t.store.NumShards()
	// The programmatic cap and the SQL LIMIT both bound a plain
	// unordered scan's output; the effective cap is the tighter one.
	limit := opt.Limit
	if sl := plan.Limit(); sl > 0 && (limit == 0 || sl < limit) {
		limit = sl
	}
	chans := make([]chan *query.Block, n)
	recv := make([]<-chan *query.Block, n)
	for i := range chans {
		chans[i] = make(chan *query.Block, 1)
		recv[i] = chans[i]
	}
	done := make(chan struct{})
	var scanned atomic.Int64
	prune := pruneFn(plan)
	errCh := make(chan error, 1)
	t.rlockAll()
	go func() {
		errCh <- fanOut(n, n, func(i int) error {
			defer close(chans[i])
			defer t.shardMu[i].RUnlock()
			// Each shard contributes at most limit rows to a
			// limit-capped merge, so it stops scanning there.
			bw := plan.NewBlockWriter(params, limit)
			bm := plan.NewBatchMatcher()
			matched := 0
			aborted := false
			var innerErr error
			// handOff passes the block being filled to the merge; false
			// means the stream was cancelled meanwhile.
			handOff := func() bool {
				select {
				case chans[i] <- bw.Take():
				case <-done:
					aborted = true
					return false
				}
				if streamHandOffHook != nil {
					streamHandOffHook(i, done)
				}
				return true
			}
			// The WHERE program selects whole column batches and the
			// selected rows' output columns copy straight from the column
			// views into the hand-off blocks.
			var sel []int
			t.store.ScanShardBatches(i, prune, func(b *tuple.Batch) bool {
				scanned.Add(int64(b.Alive))
				// Poll for cancellation once per storage batch (≤ BatchRows
				// rows): once the merge has emitted LIMIT rows (or the
				// caller closed the stream), a shard mid-way through a
				// matchless stretch — no sends, so no natural done check —
				// must stop instead of scanning to its end. The yield keeps
				// the consumer (who decides to cancel) runnable even when
				// producers saturate every P.
				select {
				case <-done:
					aborted = true
					return false
				default:
				}
				runtime.Gosched()
				bits, _, kerr := bm.Match(b)
				sel = tuple.AppendSet(sel[:0], bits)
				// This batch is the shard's last when it reaches the
				// limit or a row in it fails to project.
				last := limit != 0 && matched+len(sel) >= limit
				if last {
					sel = sel[:limit-matched]
				}
				for rows := sel; len(rows) > 0; {
					took := bw.AddBatch(b, rows)
					rows = rows[took:]
					matched += took
					if bw.Failed() {
						last = true
						break
					}
					if bw.Full() && !handOff() {
						return false
					}
				}
				if last {
					return false
				}
				innerErr = kerr
				return kerr == nil
			})
			if innerErr != nil {
				return innerErr
			}
			if !aborted && bw.Len() > 0 {
				handOff()
			}
			return nil
		})
	}()

	return query.NewStreamRows(query.Stream{
		Cols:   plan.Cols(),
		Mode:   plan.Mode(),
		Blocks: recv,
		Done:   done,
		Wait: func() (int, error) {
			err := <-errCh
			// Count the query only once the scan ends cleanly, matching
			// the materialised paths: failed queries are not queries.
			if err == nil {
				t.mu.Lock()
				t.ctrs.Queries++
				t.mu.Unlock()
			}
			return int(scanned.Load()), err
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
	n := t.store.NumShards()
	aggs := make([]*query.Aggregator, n)
	scanned := make([]int, n)
	prune := pruneFn(plan)
	err := fanOut(n, t.workers, func(i int) error {
		agg := plan.NewAggregator(params)
		t.shardMu[i].RLock()
		defer t.shardMu[i].RUnlock()
		// The WHERE program selects whole column batches and the
		// aggregator folds the selection off the same column slices.
		bm := plan.NewBatchMatcher()
		var innerErr error
		t.store.ScanShardBatches(i, prune, func(b *tuple.Batch) bool {
			scanned[i] += b.Alive
			sel, _, kerr := bm.Match(b)
			if innerErr = agg.FeedBatch(b, sel); innerErr == nil {
				innerErr = kerr
			}
			return innerErr == nil
		})
		aggs[i] = agg
		return innerErr
	})
	if err != nil {
		return nil, err
	}
	for i := 1; i < n; i++ {
		if err := aggs[0].Merge(aggs[i]); err != nil {
			return nil, err
		}
	}
	t.mu.Lock()
	t.ctrs.Queries++
	t.mu.Unlock()
	g, err := aggs[0].Grid()
	if err != nil {
		return nil, err
	}
	total := 0
	for _, s := range scanned {
		total += s
	}
	return query.NewGridRows(g, query.Peek, total), nil
}

// execOrderedTopK answers an ordered, LIMIT-capped peek without a full
// sort barrier: under its read lock (with segment pruning) each shard
// offers its selected rows to a bounded heap of k = LIMIT rows that
// compares sort keys on the column slices and materialises only the
// rows it admits. The per-shard survivors merge k-way in (ORDER BY
// keys, ID) order — the exact total order the materialised path's
// stable sort produces. Peak result memory is O(shards × k) no matter
// how many tuples match.
func (t *Table) execOrderedTopK(plan *query.Plan) (*query.Rows, error) {
	n := t.store.NumShards()
	prune := pruneFn(plan)
	axis, axisDesc, axisOK := plan.OrderAxis()
	tks := make([]*query.TopK, n)
	scanned := make([]int, n)
	err := fanOut(n, t.workers, func(i int) error {
		tk := plan.NewTopK()
		t.shardMu[i].RLock()
		defer t.shardMu[i].RUnlock()
		// ORDER BY _t/_id walks the ID axis in key order (segments and
		// batches reversed for DESC), so the heap fills with the best
		// candidates first and the per-segment _t/_id bounds rule out
		// whole segments once it is full. The top-k survivor set is
		// visit-order independent (the heap orders totally, ties broken
		// by ID), so the direction cannot change the answer.
		skip := prune
		if axisOK && !pruneOffHook {
			axisSkip := tk.AxisSkip(axis, axisDesc)
			skip = func(z *storage.ZoneMap) bool {
				return (prune != nil && prune(z)) || axisSkip(z)
			}
		}
		bm := plan.NewBatchMatcher()
		var innerErr error
		t.store.ScanShardAxis(i, axisOK && axisDesc, skip, func(b *tuple.Batch) bool {
			scanned[i] += b.Alive
			sel, _, kerr := bm.Match(b)
			if innerErr = tk.AddBatch(b, sel); innerErr == nil {
				innerErr = kerr
			}
			return innerErr == nil
		})
		if innerErr != nil {
			return innerErr
		}
		if err := tk.Err(); err != nil {
			return err
		}
		tks[i] = tk
		return nil
	})
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
	t.mu.Lock()
	t.ctrs.Queries++
	t.mu.Unlock()
	total := 0
	for _, s := range scanned {
		total += s
	}
	return query.NewValueRows(plan.Cols(), plan.Mode(), rows, total), nil
}

// execMaterial is the barrier peek: collect the matching set (one cut
// across all shards, under their read locks), apply touch-on-read and
// distillation over it, then run the finishing
// stages (projection, ORDER BY, LIMIT — or local aggregation when the
// distributed path was disqualified).
func (t *Table) execMaterial(plan *query.Plan, params []tuple.Value, opt QueryOpts) (*query.Rows, error) {
	t.rlockAll()
	tuples, totalScanned, err := t.collectMatches(plan, opt.Limit)
	t.runlockAll()
	if err != nil {
		return nil, err
	}

	if t.cfg.TouchOnRead && len(tuples) > 0 {
		t.touchAnswered(tuples)
	}

	t.mu.Lock()
	t.ctrs.Queries++
	t.mu.Unlock()

	if opt.Distill != "" && len(tuples) > 0 {
		t.mu.Lock()
		err := t.shelf.Absorb(opt.Distill, t.clk.Now(), t.cfg.ContainerHalfLife, tuples)
		t.mu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	return t.finishRows(plan, params, tuples, totalScanned)
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
func (t *Table) consumeCut(plan *query.Plan, opt QueryOpts) (tuples []tuple.Tuple, scannedTotal int, due bool, err error) {
	n := t.store.NumShards()
	t.lockAll()
	defer t.unlockAll()
	if t.closed.Load() {
		return nil, 0, false, t.errClosed()
	}

	tuples, scannedTotal, err = t.collectMatches(plan, opt.Limit)
	if err != nil {
		return nil, 0, false, err
	}

	t.mu.Lock()
	t.ctrs.Queries++
	t.mu.Unlock()

	if opt.Distill != "" && len(tuples) > 0 {
		t.mu.Lock()
		err := t.shelf.Absorb(opt.Distill, t.clk.Now(), t.cfg.ContainerHalfLife, tuples)
		if err == nil {
			t.ctrs.DistilledQuery += uint64(len(tuples))
		}
		t.mu.Unlock()
		if err != nil {
			return nil, 0, false, err
		}
	}

	evictLogged := make([]int, n)
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
	due = t.noteMutationLocked(1)
	t.mu.Unlock()
	return tuples, scannedTotal, due, nil
}
