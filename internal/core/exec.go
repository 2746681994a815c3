package core

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"

	"fungusdb/internal/fanout"
	"fungusdb/internal/query"
	"fungusdb/internal/storage"
	"fungusdb/internal/tuple"
)

// This file is the one execution path of the engine's read side, and
// Prepare is its one way in. Every read — Table.SQL, the streaming
// /v2/query, stream monitors, the shell and the experiments — prepares
// a statement into a query.Plan (or fetches it from the per-table plan
// cache) and hands it to execPlan, which routes it:
//
//	stream    per-shard parallel scan k-way merged by ID, pull-based
//	aggregate per-shard partial aggregators merged in shard order
//	top-k     ORDER BY + LIMIT: per-shard bounded heaps merged k-way
//	collect   the barrier (CONSUME, distill, touch-on-read, a sort
//	          without LIMIT): the whole answer folded under every
//	          shard's lock, then the side effects
//
// A statement's fold follows from its shape alone: an aggregate folds
// through Aggregator.FeedBatch, an ORDER BY … LIMIT peek through
// TopK.AddBatch, any other statement into query.BlockWriter blocks.
// Every route scans through one driver, scanShards: it owns the
// fan-out, the shard locks, the segment verdicts (skip, kernel and
// NaN-check elision), the batch walk, the WHERE kernels, the scanned
// count, caps and early stop, and a route supplies only a per-shard
// sink and its merge. Every fold materialises late: WHERE,
// group keys, aggregate arguments and sort keys read the batch's typed
// column slices, and values are boxed only for rows that reach the
// answer. Every route answers projected rows (query.Rows.Values); a
// caller that wants a whole tuple's fields selects `_id, _t, _f, *`
// (SelectTuples, RowTuple).

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
	if plan := t.plans.get(src); plan != nil {
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
	if plan := t.plans.get(stmt.Source()); plan != nil {
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
	t.plans.put(stmt.Source(), plan)
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
// the answer set; consume, ORDER BY and aggregation answers have
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
	case plan.Consume(), opt.Distill != "", t.cfg.TouchOnRead:
		// A side effect acts on the answered rows once the whole answer
		// has been folded: the barrier.
		return t.execCollect(plan, params, opt)
	case !plan.Aggregated() && !plan.Ordered():
		return t.execStream(plan, params, opt)
	case opt.Limit > 0:
		// An aggregate or a sort cannot take the programmatic cap (the
		// first matching rows by ID) shard by shard.
		return t.execCollect(plan, params, opt)
	case plan.Aggregated():
		return t.execFold(plan, t.aggFold(plan, params))
	case plan.Limit() > 0:
		// ORDER BY + LIMIT: push the sort into per-shard bounded top-k
		// heaps and merge k-way, so peak result memory is O(shards ×
		// LIMIT) instead of the whole matching set behind a sort.
		return t.execFold(plan, t.topkFold(plan))
	default:
		return t.execCollect(plan, params, opt)
	}
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
// error, and returns the shard's. caps, when set, returns the most rows
// shard i takes: the driver hands take only the first of them and ends
// the walk with the batch that reaches the cap. ids, when set, collects
// the IDs of the rows shard i takes, ascending.
type scanSink struct {
	skip  func(i int) func(query.ZoneView) bool
	score func(i int) func(query.ZoneView) (float64, bool)
	desc  bool
	veto  func(i int) bool
	take  func(i int, b *tuple.Batch, sel []uint64) (more bool, err error)
	end   func(i int, err error) error
	caps  func(i int) int
	ids   [][]tuple.ID
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
// is taken and no segment is ranked. The selection, cut at the sink's
// cap, goes to sink.take first; the batch's kernel error surfaces only
// if the walk goes on, so a route that stops at its cap stops exactly
// where a row-by-row evaluation would have.
// It returns the live rows of every batch walked, summed over the
// shards, and the lowest shard's error.
//
// The read side's three lock rules live here:
//   - lockHeld: the caller holds every shard's lock (read or write) for
//     the whole call and the driver takes none: the collect route, one
//     cut across all shards (collect).
//   - lockPerShard: the driver read-locks shard i around its walk, on
//     the table's worker pool: aggregate and top-k.
//   - lockHandedOver: the caller read-locked every shard in index order
//     before the call; the driver releases shard i once its walk and
//     sink.end are done: the stream. A producer blocked on the merge
//     holds its lock while the merge waits on the others; one still to
//     take its lock (or a pool slot) could queue behind a writer
//     waiting on the blocked one — a cycle.
//
// Under the held and handed-over rules the driver runs one goroutine
// per shard, never a pool: a block producer waits on the merge, which
// may wait on any other shard's producer.
func (t *Table) scanShards(plan *query.Plan, rule lockRule, sink scanSink) (int, error) {
	n := t.store.NumShards()
	workers := t.workers
	if rule != lockPerShard {
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
		taken, most := 0, 0
		if sink.caps != nil {
			most = sink.caps(i)
		}
		take := func(b *tuple.Batch) bool {
			scanned[i] += b.Alive
			if sink.veto != nil && sink.veto(i) {
				return false
			}
			// The selection is the matcher's scratch, free to cut.
			sel, _, kerr := bm.Match(b)
			last := sink.caps != nil && keepFirst(sel, most-taken)
			taken += tuple.PopCount(sel)
			if sink.ids != nil {
				tuple.EachSet(sel, func(j int) bool {
					sink.ids[i] = append(sink.ids[i], b.IDs[j])
					return true
				})
			}
			more, serr := sink.take(i, b, sel)
			more = more && !last
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

// keepFirst clears every set bit of words after the first k, and
// reports whether words held k or more.
func keepFirst(words []uint64, k int) bool {
	for w := range words {
		for m := words[w]; m != 0; m &= m - 1 {
			if k--; k < 0 {
				words[w] &^= m
				clear(words[w+1:])
				return true
			}
		}
	}
	return k == 0
}

// countQuery counts one answered query; failed queries are not queries.
func (t *Table) countQuery() {
	t.mu.Lock()
	t.ctrs.Queries++
	t.mu.Unlock()
}

// selPool recycles the block producers' selected-row scratch. Each
// slice holds a whole batch, so AppendSet never grows it and the pooled
// pointer keeps naming the same array.
var selPool = sync.Pool{New: func() any {
	sel := make([]int, 0, tuple.BatchRows)
	return &sel
}}

// streamShard is one block producer: the block it fills and hands to
// the merge over out until done closes.
type streamShard struct {
	bw      *query.BlockWriter
	out     chan *query.Block
	done    <-chan struct{}
	sel     *[]int // pooled selected-row scratch
	aborted bool   // the merge cancelled the stream
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

// blockSink is the row plans' fold, shared by the stream and the
// collect route: one producer per shard copies the plan's output
// columns of its selected rows, at most limit of them (0 = all), into
// blocks and hands each over a small bounded channel. The Stream it
// returns, once given its Wait, merges the blocks by ID as they come
// and stops at limit rows.
func blockSink(plan *query.Plan, params []tuple.Value, n, limit int) (scanSink, query.Stream) {
	prods := make([]streamShard, n)
	st := query.Stream{Cols: plan.Cols(), Mode: plan.Mode(), Blocks: make([]<-chan *query.Block, n), Done: make(chan struct{}), Limit: limit}
	for i := range prods {
		out := make(chan *query.Block, 1)
		prods[i] = streamShard{bw: plan.NewBlockWriter(params, limit), out: out, done: st.Done, sel: selPool.Get().(*[]int)}
		st.Blocks[i] = out
	}
	sink := scanSink{
		// Poll for cancellation once per batch, before its kernels: a
		// shard mid-way through a matchless stretch (no sends, so no
		// natural done check) must stop once the merge has emitted LIMIT
		// rows or the caller closed the stream. The yield keeps the
		// consumer runnable even when producers saturate every P.
		veto: func(i int) bool {
			select {
			case <-st.Done:
				prods[i].aborted = true
				return true
			default:
			}
			runtime.Gosched()
			return false
		},
		// A batch is a shard's last when a row in it fails to project.
		take: func(i int, b *tuple.Batch, bits []uint64) (bool, error) {
			p := &prods[i]
			sel := tuple.AppendSet((*p.sel)[:0], bits)
			for len(sel) > 0 {
				sel = sel[p.bw.AddBatch(b, sel):]
				if p.bw.Failed() || p.bw.Full() && !p.handOff(i) {
					return false, nil
				}
			}
			return true, nil
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
	if limit > 0 {
		sink.caps = func(int) int { return limit }
	}
	return sink, st
}

// execStream is the shard-parallel streaming peek: the blockSink's
// producers pass their blocks over small bounded channels, and the
// returned Rows k-way merges them back into global insertion order as
// the caller pulls. Every shard is read-locked here, before any
// producer runs (scanShards' handed-over rule), so once Execute returns
// the stream waits only on its consumer. Blocks are recycled: the merge
// releases each once the caller has moved past its rows.
func (t *Table) execStream(plan *query.Plan, params []tuple.Value, opt QueryOpts) (*query.Rows, error) {
	// The programmatic cap and the SQL LIMIT both bound a plain scan's
	// output; the effective cap is the tighter one. Each shard
	// contributes at most limit rows, so it stops scanning there.
	limit := opt.Limit
	if sl := plan.Limit(); sl > 0 && (limit == 0 || sl < limit) {
		limit = sl
	}
	sink, st := blockSink(plan, params, t.store.NumShards(), limit)
	t.rlockAll()
	join := t.walkAsync(plan, lockHandedOver, sink)
	st.Wait = func() (int, error) {
		scanned, err := join()
		// Count the query only once the scan ends cleanly, as the other
		// routes do.
		if err == nil {
			t.countQuery()
		}
		return scanned, err
	}
	return query.NewStreamRows(st), nil
}

// walkAsync runs scanShards on its own goroutine, for a merge that
// consumes the blocks while they are made, and returns the function
// that joins the walk.
func (t *Table) walkAsync(plan *query.Plan, rule lockRule, sink scanSink) func() (int, error) {
	var scanned int
	var err error
	walked := make(chan struct{})
	go func() {
		scanned, err = t.scanShards(plan, rule, sink)
		close(walked)
	}()
	return func() (int, error) {
		<-walked
		return scanned, err
	}
}

// fold is a route's per-shard sink and the step that merges what the
// sinks folded into the answer's rows, given the walk's error.
type fold struct {
	sink   scanSink
	finish func(err error) ([][]tuple.Value, error)
}

// execFold runs an aggregate or top-k fold without a barrier, each
// shard walked under its own read lock.
func (t *Table) execFold(plan *query.Plan, f fold) (*query.Rows, error) {
	scanned, err := t.scanShards(plan, lockPerShard, f.sink)
	rows, err := f.finish(err)
	if err != nil {
		return nil, err
	}
	t.countQuery()
	return query.NewValueRows(plan.Cols(), plan.Mode(), rows, scanned), nil
}

// aggFold folds an aggregate without materialising matches: one partial
// aggregator per shard folds the selected rows off the column slices
// (group keys and aggregate arguments alike), merged in ascending shard
// order (deterministic for a fixed shard count).
func (t *Table) aggFold(plan *query.Plan, params []tuple.Value) fold {
	aggs := make([]*query.Aggregator, t.store.NumShards())
	for i := range aggs {
		aggs[i] = plan.NewAggregator(params)
	}
	take := func(i int, b *tuple.Batch, sel []uint64) (bool, error) { return true, aggs[i].FeedBatch(b, sel) }
	return fold{scanSink{take: take}, func(err error) ([][]tuple.Value, error) {
		for _, agg := range aggs[1:] {
			if err == nil {
				err = aggs[0].Merge(agg)
			}
		}
		if err != nil {
			return nil, err
		}
		g, err := aggs[0].Grid()
		if err != nil {
			return nil, err
		}
		return g.Rows, nil
	}}
}

// topkFold answers an ordered, LIMIT-capped peek without a full sort
// barrier: each shard offers its selected rows to a bounded heap of k =
// LIMIT rows that compares sort keys on the column slices and
// materialises only the rows it admits. The per-shard survivors merge
// k-way in (ORDER BY keys, ID) order — the exact total order the
// collect route's stable sort produces. Peak result memory is
// O(shards × k) no matter how many tuples match.
func (t *Table) topkFold(plan *query.Plan) fold {
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
	return fold{sink, func(err error) ([][]tuple.Value, error) {
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
		return plan.MergeTopK(tks)
	}}
}

// execCollect is the barrier route. collectCut folds the whole answer
// under every shard's lock; only once the fold, the merge and the sort
// have all succeeded do the side effects run, in this order: absorb the
// answer for distill and evict it for CONSUME (both under the locks),
// touch it (after the read locks are released) and count the query. A
// query that fails removes, absorbs, touches and counts nothing.
func (t *Table) execCollect(plan *query.Plan, params []tuple.Value, opt QueryOpts) (*query.Rows, error) {
	rows, ids, due, err := t.collectCut(plan, params, opt)
	if err != nil {
		return nil, err
	}
	if t.cfg.TouchOnRead && !plan.Consume() {
		t.touchAnswered(ids)
	}
	t.countQuery()
	if due { // Checkpoint takes every shard lock: collectCut released them.
		if err := t.Checkpoint(); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// collectCut is execCollect's critical section: every shard read-locked
// for a peek, write-locked for a CONSUME (one atomic answer-and-discard
// cut). It returns the answered IDs per shard when a side effect needs
// them, and whether a checkpoint fell due.
func (t *Table) collectCut(plan *query.Plan, params []tuple.Value, opt QueryOpts) (*query.Rows, [][]tuple.ID, bool, error) {
	if plan.Consume() {
		t.lockAll()
		defer t.unlockAll()
		if t.closed.Load() {
			return nil, nil, false, t.errClosed()
		}
	} else {
		t.rlockAll()
		defer t.runlockAll()
	}
	record := plan.Consume() || opt.Distill != "" || t.cfg.TouchOnRead
	rows, ids, err := t.collect(plan, params, opt.Limit, record)
	if err == nil && opt.Distill != "" {
		err = t.distill(opt.Distill, ids)
	}
	due := false
	if err == nil && plan.Consume() {
		due, err = t.evictAnswered(ids, opt.Distill != "")
	}
	return rows, ids, due, err
}

// collect folds the plan's whole answer in one walk of every shard
// (scanShards' held rule): an aggregate through the aggFold, rows
// through the blockSink, merged by ID as the walk goes and, for an
// ordered plan, sorted. It projects every answered row; the SQL LIMIT
// cuts only the output. With record set it returns each shard's
// answered IDs. A positive limit (QueryOpts.Limit) answers the first
// limit matching rows by ID: a first walk finds the cut, the limit-th
// matching ID, each shard stopping at its limit-th match; the fold then
// caps each shard at its rows up to the cut, so a WHERE error beyond it
// stays hidden.
//
//fungusvet:requires shardlock
func (t *Table) collect(plan *query.Plan, params []tuple.Value, limit int, record bool) (*query.Rows, [][]tuple.ID, error) {
	n := t.store.NumShards()
	var ids [][]tuple.ID
	if limit > 0 {
		first := scanSink{
			take: func(int, *tuple.Batch, []uint64) (bool, error) { return true, nil },
			caps: func(int) int { return limit },
			ids:  make([][]tuple.ID, n),
		}
		if _, err := t.scanShards(plan, lockHeld, first); err != nil {
			return nil, nil, err
		}
		cut := ^tuple.ID(0)
		if all := slices.Concat(first.ids...); len(all) >= limit {
			slices.Sort(all)
			cut = all[limit-1]
		}
		ids = first.ids
		for i, shard := range ids {
			ids[i] = shard[:sort.Search(len(shard), func(k int) bool { return shard[k] > cut })]
		}
	} else if record {
		ids = make([][]tuple.ID, n)
	}
	arm := func(sink *scanSink) {
		if limit > 0 {
			sink.caps = func(i int) int { return len(ids[i]) }
		} else {
			sink.ids = ids
		}
	}
	if plan.Aggregated() {
		f := t.aggFold(plan, params)
		arm(&f.sink)
		scanned, err := t.scanShards(plan, lockHeld, f.sink)
		rows, err := f.finish(err)
		if err != nil {
			return nil, nil, err
		}
		return query.NewValueRows(plan.Cols(), plan.Mode(), rows, scanned), ids, nil
	}
	sink, st := blockSink(plan, params, n, 0)
	arm(&sink)
	st.Wait = t.walkAsync(plan, lockHeld, sink)
	merge := query.NewStreamRows(st)
	rows, err := merge.Collect()
	if err == nil {
		rows, err = plan.OrderRows(rows)
	}
	if err != nil {
		return nil, nil, err
	}
	return query.NewValueRows(plan.Cols(), plan.Mode(), rows, merge.Scanned()), ids, nil
}

// distill absorbs the answered tuples into the named container, in ID
// order. The caller holds every shard's lock.
func (t *Table) distill(name string, ids [][]tuple.ID) error {
	all := slices.Concat(ids...)
	if len(all) == 0 {
		return nil
	}
	slices.Sort(all)
	tuples := make([]tuple.Tuple, len(all))
	for k, id := range all {
		var err error
		if tuples[k], err = t.store.Shard(t.store.ShardOf(id)).Get(id); err != nil {
			return err
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.shelf.Absorb(name, t.clk.Now(), t.cfg.ContainerHalfLife, tuples)
}

// evictAnswered is a CONSUME's second natural law: it removes the
// answered tuples, logs their evicts shard by shard, and reports
// whether a checkpoint fell due. The caller holds every shard's write
// lock.
func (t *Table) evictAnswered(ids [][]tuple.ID, distilled bool) (bool, error) {
	n := 0
	for s, shard := range ids {
		if err := t.evictLocked(s, shard); err != nil {
			return false, err
		}
		if t.log != nil && len(shard) > 0 {
			if _, err := t.noteAppendLocked(s, len(shard)); err != nil {
				return false, err
			}
		}
		n += len(shard)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ctrs.Consumed += uint64(n)
	if distilled {
		t.ctrs.DistilledQuery += uint64(n)
	}
	return t.noteMutationLocked(1), nil
}
