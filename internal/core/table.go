package core

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"fungusdb/internal/clock"
	"fungusdb/internal/container"
	"fungusdb/internal/fanout"
	"fungusdb/internal/fungus"
	"fungusdb/internal/metrics"
	"fungusdb/internal/query"
	"fungusdb/internal/storage"
	"fungusdb/internal/tuple"
	"fungusdb/internal/wal"
)

// RotContainer is the shelf container that receives tuples distilled at
// rot time when DistillOnRot is set.
const RotContainer = "_rot"

// TableConfig configures CreateTable.
type TableConfig struct {
	// Schema is the user-attribute schema (required).
	Schema *tuple.Schema
	// Fungus is the decay law applied each tick. Nil means fungus.Null
	// (the unbounded fridge). With Shards > 1 the law is instantiated
	// per shard via fungus.ForShard: stateful fungi (EGI) get one
	// instance per shard with the infection front scoped to that shard,
	// quotas are divided, and everything else is shared.
	Fungus fungus.Fungus
	// Shards splits the extent into this many hash/ID-residue shards,
	// each with its own store, lock, fungus instance and RNG stream, so
	// decay and scans parallelise across cores. 0 and 1 both mean one
	// shard, which behaves exactly like the pre-sharding engine.
	Shards int
	// TickEvery is the table's decay period T: the fungus runs on every
	// TickEvery-th engine tick (0 and 1 both mean every tick). The
	// paper's clock is per-relation — "the extent of table R decays
	// with a periodic clock of T seconds" — so two tables of one DB can
	// rot on different cadences. Container-shelf decay is unaffected.
	TickEvery int
	// SegmentSize overrides the store segment capacity (0 = default).
	SegmentSize int
	// TouchOnRead restores freshness of every tuple a Peek query
	// returns, when the fungus supports refresh (fungus.Refresher).
	TouchOnRead bool
	// DistillOnRot absorbs rotting tuples into the RotContainer before
	// eviction — the paper's "inspect them once before removal".
	DistillOnRot bool
	// ContainerHalfLife is the decay half-life (ticks) of containers
	// created by this table; 0 means containers never decay.
	ContainerHalfLife float64
	// Digest sizes container sketches; the zero value takes defaults.
	Digest container.DigestConfig
	// Persist enables WAL + snapshot persistence (DB needs a Dir).
	Persist bool
	// CheckpointEvery writes a snapshot and truncates the WAL after
	// this many mutations (0 = only on Close).
	CheckpointEvery int
	// Durability is this table's WAL sync level: none (buffered,
	// fsync only at checkpoint/close), grouped (a background
	// group-commit daemon fsyncs each shard log once per pending
	// window; InsertDurable returns a commit future), or strict (the
	// owning shard's log fsyncs before every append acknowledges).
	// wal.DurabilityDefault inherits DBConfig.Durability. Ignored for
	// non-persistent tables.
	Durability wal.DurabilityLevel
	// ReadOnly marks the table a replication replica: every local
	// mutation path (inserts, consume queries, distillation, local
	// decay) is rejected with ErrReadOnly, and state changes arrive
	// exclusively through the replica apply surface (see replica.go).
	// ReadOnly tables are in-memory (Persist must be false — their
	// durability is the leader's) and force TouchOnRead/DistillOnRot
	// off, since both would mutate state the leader never logged.
	ReadOnly bool
}

// TableTickReport summarises one decay cycle of one table.
type TableTickReport struct {
	Rotted              int
	Distilled           int
	Live                int
	ContainersDiscarded []string
}

// Table is one relation: a sharded extent, one fungus instance and RNG
// stream per shard, a knowledge shelf, counters, and optional
// persistence. All methods are safe for concurrent use.
//
// Locking model: shardMu[i] guards shard i's store, fungus and RNG;
// compound operations (a decay tick, a consume query) hold it for
// their whole critical section, so readers never observe half-applied
// laws. Cross-shard operations acquire shard locks in ascending index
// order. mu guards table metadata (counters, checkpoint scheduling)
// and orders shelf absorption; it is only ever acquired after shard
// locks, never before one. Each shard appends to its OWN WAL file
// under its own lock — no cross-shard mutex, no record interleaving —
// which keeps every shard log locally ID-ordered so recovery can
// replay the logs in parallel with no buffering or sorting.
type Table struct {
	name    string
	cfg     TableConfig
	clk     clock.Clock
	seed    int64 // the table's RNG seed, kept so a replica re-base can rebuild the streams
	store   *storage.ShardedStore
	shardMu []sync.RWMutex
	fngs    []fungus.Fungus // one per shard; fngs[0] may be the caller's instance
	rngs    []*rand.Rand    // one per shard; rngs[0] shares its source with the shelf
	rotBufs [][]tuple.ID    // per-shard scratch, reused across ticks
	shelf   *container.Shelf
	workers int

	plans *planCache // compiled statements/predicates, keyed by source

	mu        sync.Mutex // metadata: counters, mutations; orders shelf absorbs
	ctrs      metrics.Counters
	mutations int

	log        *wal.ShardedLog
	durability wal.DurabilityLevel // resolved: never DurabilityDefault
	gc         *wal.GroupCommitter // non-nil iff durability == grouped
	closed     atomic.Bool

	// tickLog: persistent tables with a real fungus log a RecTick per
	// shard per fungus run, so followers can replay decay. replayTicks:
	// this ReadOnly replica re-executes those ticks through its own
	// fungus (the law is replayable — see fungus.Replayable) instead of
	// waiting for the leader's evict records.
	tickLog     bool
	replayTicks bool
}

func newTable(name string, cfg TableConfig, clk clock.Clock, seed int64, dir string, dbc DBConfig) (*Table, error) {
	if cfg.Fungus == nil {
		cfg.Fungus = fungus.Null{}
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Digest == (container.DigestConfig{}) {
		cfg.Digest = container.DefaultDigestConfig()
	}
	if cfg.ReadOnly {
		if cfg.Persist {
			return nil, fmt.Errorf("core: table %q: a read-only replica cannot persist (its durability is the leader's)", name)
		}
		// Both features mutate state the leader never ships: touch
		// rewrites freshness on reads, distill-on-rot feeds the shelf
		// from locally computed rot. A replica must not invent either.
		cfg.TouchOnRead = false
		cfg.DistillOnRot = false
	}
	workers := dbc.Workers
	if workers < 1 {
		workers = 1
	}
	// Resolve the sync level: table spec wins, then the DB default,
	// then none (the pre-group-commit behaviour).
	durability := cfg.Durability
	if durability == wal.DurabilityDefault {
		durability = dbc.Durability
	}
	if durability == wal.DurabilityDefault {
		durability = wal.DurabilityNone
	}
	n := cfg.Shards
	_, isNull := cfg.Fungus.(fungus.Null)
	t := &Table{
		name:        name,
		cfg:         cfg,
		clk:         clk,
		seed:        seed,
		shardMu:     make([]sync.RWMutex, n),
		fngs:        make([]fungus.Fungus, n),
		rngs:        make([]*rand.Rand, n),
		rotBufs:     make([][]tuple.ID, n),
		workers:     workers,
		durability:  durability,
		plans:       newPlanCache(planCacheCap),
		tickLog:     !isNull,
		replayTicks: cfg.ReadOnly && fungus.Replayable(cfg.Fungus),
	}
	t.buildShards()
	if dir != "" {
		// Recovery replays the per-shard logs in parallel (over the
		// table's worker pool, as checkpoints do) and leaves the directory
		// in the per-shard layout at this shard count, re-routing tuples
		// when the count changed; the logs then open for appending with
		// the record counts the replay took. A single-log directory is
		// refused.
		log, err := wal.RecoverAndOpen(dir, t.store, workers)
		if err != nil {
			return nil, fmt.Errorf("core: recover table %q: %w", name, err)
		}
		t.log = log
		if durability == wal.DurabilityGrouped {
			t.gc = wal.NewGroupCommitter(log, wal.GroupCommitConfig{
				Interval:      dbc.GroupCommitInterval,
				SizeThreshold: dbc.GroupCommitSize,
			})
		}
	}
	t.shelf = container.NewShelf(cfg.Schema, cfg.Digest, t.rngs[0])
	return t, nil
}

// buildShards sets up the empty store, the per-shard RNG streams and
// the per-shard fungi from the table's config and seed. Table creation
// and a replica re-base both start from it, so a re-based replica
// begins from the same initial conditions as a fresh join. Shard 0
// draws from the table stream (shared with the shelf, via a locked
// source); shard i > 0 gets its own stream derived from (table seed,
// shard index). One-shard tables therefore reproduce the pre-sharding
// engine bit for bit.
func (t *Table) buildShards() {
	n := t.cfg.Shards
	var opts []storage.Option
	if t.cfg.SegmentSize > 0 {
		opts = append(opts, storage.WithSegmentSize(t.cfg.SegmentSize))
	}
	t.store = storage.NewSharded(t.cfg.Schema, n, opts...)
	t.rngs[0] = rand.New(newLockedSource(t.seed))
	for i := 1; i < n; i++ {
		t.rngs[i] = rand.New(rand.NewSource(t.seed*1099511628211 + int64(i)))
	}
	for i := 0; i < n; i++ {
		t.fngs[i] = fungus.ForShard(t.cfg.Fungus, i, n)
	}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *tuple.Schema { return t.cfg.Schema }

// Shards returns the shard count.
func (t *Table) Shards() int { return t.store.NumShards() }

// ShardLens returns the live tuple count per shard — the balance gauge
// the /metrics endpoint exports, and the cheapest way to see a skewed
// rotation. Each shard is read under its own lock.
func (t *Table) ShardLens() []int {
	out := make([]int, t.store.NumShards())
	for i := range out {
		t.shardMu[i].RLock()
		out[i] = t.store.Shard(i).Len()
		t.shardMu[i].RUnlock()
	}
	return out
}

// Shelf returns the table's knowledge containers.
func (t *Table) Shelf() *container.Shelf { return t.shelf }

// lockAll write-locks every shard in index order (unlockAll releases
// in reverse); the pair is the whole-table critical section used by
// checkpoints, consume cuts and schema-level operations.
//
//fungusvet:acquires shardlock
func (t *Table) lockAll() {
	for i := range t.shardMu {
		t.shardMu[i].Lock()
	}
}

func (t *Table) unlockAll() {
	for i := len(t.shardMu) - 1; i >= 0; i-- {
		t.shardMu[i].Unlock()
	}
}

// rlockAll read-locks every shard in index order, for read paths that
// need a consistent cross-shard view.
//
//fungusvet:acquires shardlock
func (t *Table) rlockAll() {
	for i := range t.shardMu {
		t.shardMu[i].RLock()
	}
}

func (t *Table) runlockAll() {
	for i := len(t.shardMu) - 1; i >= 0; i-- {
		t.shardMu[i].RUnlock()
	}
}

// Len returns the live tuple count.
func (t *Table) Len() int {
	t.rlockAll()
	defer t.runlockAll()
	return t.store.Len()
}

// Bytes returns the approximate live extent size.
func (t *Table) Bytes() int {
	t.rlockAll()
	defer t.runlockAll()
	return t.store.Bytes()
}

// Counters returns a snapshot of lifetime event counters.
func (t *Table) Counters() metrics.Counters {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ctrs
}

// StoreStats returns a snapshot of extent storage statistics,
// aggregated over the shards.
func (t *Table) StoreStats() storage.Stats {
	t.rlockAll()
	defer t.runlockAll()
	return t.store.Stats()
}

// Profile returns the freshness profile of the extent.
func (t *Table) Profile() metrics.FreshnessProfile {
	t.rlockAll()
	defer t.runlockAll()
	return metrics.Profile(t.store)
}

// TimeSeries profiles the extent in n insertion-order buckets, merged
// across shards on the global time axis.
func (t *Table) TimeSeries(n int) []metrics.TimeBucket {
	t.rlockAll()
	defer t.runlockAll()
	return metrics.TimeSeries(t.store, n)
}

// errClosed is the uniform mutation-after-Close error.
func (t *Table) errClosed() error { return fmt.Errorf("core: table %q is closed", t.name) }

// noteAppendLocked applies the table's durability level to n records
// just appended to shard i's log: strict fsyncs shard i's log before
// returning, grouped registers the records with the group-commit
// window and returns its commit future, none does nothing (buffered).
// The caller holds shard i's lock and has already appended the records.
func (t *Table) noteAppendLocked(i, n int) (wal.CommitWait, error) {
	switch t.durability {
	case wal.DurabilityStrict:
		return wal.CommitWait{}, t.log.SyncShard(i)
	case wal.DurabilityGrouped:
		return t.gc.Note(i, n), nil
	}
	return wal.CommitWait{}, nil
}

// Insert appends one tuple with full freshness at the current tick. The
// tuple lands on the next shard in the round-robin rotation; only that
// shard's lock is taken, so inserts scale across shards. Under strict
// durability the record is fsynced before Insert returns; under grouped
// durability it joins the pending commit window (use InsertDurable to
// obtain the commit future).
func (t *Table) Insert(attrs []tuple.Value) (tuple.Tuple, error) {
	tp, _, err := t.InsertDurable(attrs)
	return tp, err
}

// InsertDurable is Insert returning the WAL commit future as well: the
// wait resolves once the record is durable (immediately for strict —
// the fsync already happened — and for non-persistent or durability-
// none tables, where there is nothing to wait for; after the window's
// batched fsync or a covering checkpoint for grouped).
func (t *Table) InsertDurable(attrs []tuple.Value) (tuple.Tuple, wal.CommitWait, error) {
	// Validate before claiming a rotation slot: a rejected row must not
	// burn a shard turn, or later tuples would take IDs out of arrival
	// order on the time axis.
	if err := t.cfg.Schema.Validate(attrs); err != nil {
		return tuple.Tuple{}, wal.CommitWait{}, err
	}
	if err := t.writable(); err != nil {
		return tuple.Tuple{}, wal.CommitWait{}, err
	}
	var out [1]tuple.Tuple
	inserted, wait, err := t.insertShard(t.store.NextShard(), t.clk.Now(), &rowSource{rows: [][]tuple.Value{attrs}, n: 1}, nil, out[:])
	if err := t.noteInserted(inserted, err); err != nil {
		return tuple.Tuple{}, wal.CommitWait{}, err
	}
	return out[0], wait, nil
}

// InsertBatch appends a batch of rows, grouping them by destination
// shard so each shard's lock is taken once per batch instead of once
// per row, and the shard groups insert in parallel. Rows are dealt
// round-robin from the current rotation point, so a single-threaded
// batch gets the same IDs row-at-a-time Insert would have assigned. It
// returns one tuple per row, in row order. On error the batch may be
// partially applied (the error names the first failing shard group);
// returned tuples of failed rows are zero-valued.
func (t *Table) InsertBatch(rows [][]tuple.Value) ([]tuple.Tuple, error) {
	tps, _, err := t.InsertBatchDurable(rows)
	return tps, err
}

// InsertBatchDurable is InsertBatch returning one WAL commit future
// covering the whole batch (see InsertDurable for the per-level wait
// semantics). Shard groups note their appends independently, so a
// batch straddling a group-commit window swap waits on every window it
// touched.
func (t *Table) InsertBatchDurable(rows [][]tuple.Value) ([]tuple.Tuple, wal.CommitWait, error) {
	if len(rows) == 0 {
		return nil, wal.CommitWait{}, nil
	}
	// Validate every row before dealing rotation slots (see Insert).
	for r, row := range rows {
		if err := t.cfg.Schema.Validate(row); err != nil {
			return nil, wal.CommitWait{}, fmt.Errorf("core: batch row %d: %w", r, err)
		}
	}
	results := make([]tuple.Tuple, len(rows))
	wait, err := t.insert(&rowSource{rows: rows, n: len(rows)}, results)
	return results, wait, err
}

// InsertColumns is InsertBatch for rows that arrive column by column, as
// the HTTP insert route decodes them: cols[c] is schema column c as a
// typed view (Ints, Floats, Bools, or Codes into Dict) of at least n
// rows. Rows are dealt and logged as InsertBatch deals and logs them,
// with no value slice per row. It returns the ID of row 0 (0 when n is
// 0); on error the batch may be partially applied.
func (t *Table) InsertColumns(cols []tuple.ColView, n int) (tuple.ID, error) {
	if err := t.cfg.Schema.ValidateColumns(cols, n); err != nil {
		return 0, err
	}
	var first [1]tuple.Tuple
	_, err := t.insert(&rowSource{cols: cols, n: n}, first[:])
	return first[0].ID, err
}

// rowSource is the input of the insert loop: n rows, given as value rows
// or as typed columns.
type rowSource struct {
	rows [][]tuple.Value
	cols []tuple.ColView
	n    int
}

// row returns row r. Column input is copied into scratch, which the
// next call overwrites: the store and the WAL copy what they keep.
func (src *rowSource) row(r int, scratch []tuple.Value) []tuple.Value {
	if src.cols == nil {
		return src.rows[r]
	}
	for c := range src.cols {
		scratch[c] = src.cols[c].Value(r)
	}
	return scratch
}

// writable rejects a mutation of a replica or a closed table.
func (t *Table) writable() error {
	if t.cfg.ReadOnly {
		return t.errReadOnly()
	}
	if t.closed.Load() {
		return t.errClosed()
	}
	return nil
}

// insert runs validated rows through the per-shard loop, dealt
// round-robin as InsertBatch describes, the shard groups in parallel.
// out[r] receives row r's tuple for r < len(out). The error is the first
// failing group's.
func (t *Table) insert(src *rowSource, out []tuple.Tuple) (wal.CommitWait, error) {
	if err := t.writable(); err != nil {
		return wal.CommitWait{}, err
	}
	now := t.clk.Now()
	n := t.store.NumShards()
	groups := make([][]int, n)
	for r := 0; r < src.n; r++ {
		g := t.store.NextShard()
		if groups[g] == nil {
			groups[g] = make([]int, 0, (src.n+n-1)/n)
		}
		groups[g] = append(groups[g], r)
	}
	waits := make([]wal.CommitWait, n)
	var inserted atomic.Int64
	err := fanout.Run(n, t.workers, func(g int) error {
		if len(groups[g]) == 0 {
			return nil
		}
		k, wait, err := t.insertShard(g, now, src, groups[g], out)
		inserted.Add(int64(k))
		waits[g] = wait
		return err
	})
	return wal.JoinWaits(waits), t.noteInserted(int(inserted.Load()), err)
}

// insertShard is the one per-shard insert loop. Under shard i's lock it
// appends the rows of src listed in group (all of them when group is
// nil), logs each and notes the appends with the durability level. It
// returns how many rows reached the store.
func (t *Table) insertShard(i int, now clock.Tick, src *rowSource, group []int, out []tuple.Tuple) (int, wal.CommitWait, error) {
	t.shardMu[i].Lock()
	defer t.shardMu[i].Unlock()
	if t.closed.Load() {
		return 0, wal.CommitWait{}, t.errClosed()
	}
	scratch := make([]tuple.Value, len(src.cols)) // empty for row input
	n := src.n
	if group != nil {
		n = len(group)
	}
	inserted := 0
	for k := 0; k < n; k++ {
		r := k
		if group != nil {
			r = group[k]
		}
		tp, err := t.store.InsertShard(i, now, src.row(r, scratch))
		if err != nil {
			return inserted, wal.CommitWait{}, err
		}
		// Counted before logging: a tuple in the store is live even if
		// its WAL append fails, and the conservation counters say so.
		inserted++
		if r < len(out) {
			out[r] = tp
		}
		if t.log != nil {
			if err := t.log.AppendInsert(i, tp); err != nil {
				return inserted, wal.CommitWait{}, err
			}
		}
	}
	if t.log == nil || inserted == 0 {
		return inserted, wal.CommitWait{}, nil
	}
	wait, err := t.noteAppendLocked(i, inserted)
	return inserted, wait, err
}

// noteInserted counts n tuples that reached the store and, when the
// insert succeeded, runs the checkpoint they made due.
func (t *Table) noteInserted(n int, err error) error {
	t.mu.Lock()
	t.ctrs.Inserted += uint64(n)
	due := t.noteMutationLocked(n)
	t.mu.Unlock()
	if err == nil && due {
		return t.Checkpoint()
	}
	return err
}

// QueryOpts tunes one execution (PreparedQuery.ExecuteOpts, Table.SQL).
type QueryOpts struct {
	// Limit caps the answer set size; 0 means unlimited. In Consume
	// mode only the answered tuples are removed.
	Limit int
	// Distill names a knowledge container that absorbs the answer set
	// (created on first use with the table's container half-life).
	// Empty means no distillation.
	Distill string
}

// mergeByID k-way merges per-shard answer sets (each ID-ascending) into
// global insertion order, truncating to limit when limit > 0.
func mergeByID(parts [][]tuple.Tuple, limit int) []tuple.Tuple {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if limit > 0 && total > limit {
		total = limit
	}
	if len(parts) == 1 {
		return parts[0][:total]
	}
	out := make([]tuple.Tuple, 0, total)
	idx := make([]int, len(parts))
	for len(out) < total {
		best := -1
		for i, p := range parts {
			if idx[i] < len(p) && (best < 0 || p[idx[i]].ID < parts[best][idx[best]].ID) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		out = append(out, parts[best][idx[best]])
		idx[best]++
	}
	return out
}

// touchAnswered refreshes the answered tuples, shard by shard, through
// each shard's own fungus instance ("data being taken care of by its
// owner"). Tuples consumed or rotted since the scan are skipped by the
// refresher's own not-found handling.
func (t *Table) touchAnswered(answered []tuple.Tuple) {
	n := t.store.NumShards()
	byShard := make([][]tuple.ID, n)
	for i := range answered {
		s := t.store.ShardOf(answered[i].ID)
		byShard[s] = append(byShard[s], answered[i].ID)
	}
	now := t.clk.Now()
	_ = fanout.Run(n, t.workers, func(i int) error {
		if len(byShard[i]) == 0 {
			return nil
		}
		r, ok := t.fngs[i].(fungus.Refresher)
		if !ok {
			return nil
		}
		t.shardMu[i].Lock()
		defer t.shardMu[i].Unlock()
		for _, id := range byShard[i] {
			r.Touch(now, t.store.Shard(i), id)
		}
		return nil
	})
}

// SQL parses and executes a SELECT statement against this table:
//
//	SELECT [CONSUME] <targets> FROM <this table>
//	       [WHERE ...] [GROUP BY ...] [ORDER BY ...] [LIMIT n]
//
// The CONSUME keyword applies the second natural law to everything the
// WHERE clause matches (the whole matching set leaves the extent, even
// when LIMIT truncates the output grid). An optional QueryOpts lets the
// caller distill the consumed set into a container.
//
// Aggregate/GROUP BY peeks run the distributed path: each shard folds
// its matches into a partial query.Aggregator in parallel and the
// partials merge in shard order, so grouped analytics never
// materialise the matching tuples.
//
// SQL is a thin shim over the prepared path — it is exactly
// Prepare(src) followed by ExecuteOpts(opt) with the streamed rows
// copied into a Grid (Rows.Collect); callers that repeat a statement
// should Prepare it once themselves (the plan cache softens, but does
// not remove, the difference).
func (t *Table) SQL(src string, opts ...QueryOpts) (*query.Grid, error) {
	pq, err := t.Prepare(src)
	if err != nil {
		return nil, err
	}
	var opt QueryOpts
	if len(opts) > 0 {
		opt = opts[0]
	}
	rows, err := pq.ExecuteOpts(opt)
	if err != nil {
		return nil, err
	}
	g := &query.Grid{Cols: rows.Cols()}
	if g.Rows, err = rows.Collect(); err != nil {
		return nil, err
	}
	return g, nil
}

// Tick applies one decay cycle: every shard's fungus runs (in parallel
// across the worker pool), rotting tuples are distilled (when
// configured) and evicted under their shard's lock, and the container
// shelf decays one step.
func (t *Table) Tick() (TableTickReport, error) {
	if t.closed.Load() {
		return TableTickReport{}, t.errClosed()
	}
	if t.cfg.ReadOnly {
		// A replica never decays locally: the leader's logged tick and
		// evict records drive its state (see ApplyShipped). DB-level
		// ticking degrades to a live-count report.
		t.rlockAll()
		live := t.store.Len()
		t.runlockAll()
		return TableTickReport{Live: live}, nil
	}
	now := t.clk.Now()
	// Claim this tick's ordinal and decide the TickEvery gate in one
	// critical section, so concurrent Tick calls each get a distinct
	// ordinal and the fungus runs exactly once per decay period.
	t.mu.Lock()
	t.ctrs.Ticks++
	runFungus := t.cfg.TickEvery <= 1 || t.ctrs.Ticks%uint64(t.cfg.TickEvery) == 0
	t.mu.Unlock()

	n := t.store.NumShards()
	doomed := make([][]tuple.Tuple, n)
	rotted := make([][]tuple.ID, n)
	if runFungus {
		err := fanout.Run(n, t.workers, func(i int) error {
			t.shardMu[i].Lock()
			defer t.shardMu[i].Unlock()
			if t.closed.Load() {
				return t.errClosed()
			}
			sh := t.store.Shard(i)
			logged := 0
			if t.log != nil && t.tickLog {
				// The tick record goes in BEFORE this run's evictions: a
				// follower replaying the tick re-derives the same rot set
				// itself, and the evict records that follow become
				// idempotent no-ops there.
				if err := t.log.AppendTick(i, uint64(now)); err != nil {
					return err
				}
				logged++
			}
			buf := t.fngs[i].Tick(now, sh, t.rngs[i], t.rotBufs[i][:0])
			t.rotBufs[i] = buf
			rotted[i] = buf
			if len(buf) == 0 {
				if logged > 0 {
					_, err := t.noteAppendLocked(i, logged)
					return err
				}
				return nil
			}
			if t.cfg.DistillOnRot {
				// "Inspect them once before removal": clone the rotten
				// tuples before the extent forgets them.
				dd := make([]tuple.Tuple, 0, len(buf))
				for _, id := range buf {
					tp, err := sh.Get(id)
					if err != nil {
						return fmt.Errorf("core: rot fetch: %w", err)
					}
					dd = append(dd, tp)
				}
				doomed[i] = dd
			}
			for _, id := range buf {
				if err := sh.Evict(id); err != nil {
					return fmt.Errorf("core: rot evict: %w", err)
				}
				if t.log != nil {
					if err := t.log.AppendEvict(i, id); err != nil {
						return err
					}
					logged++
				}
			}
			if logged > 0 {
				if _, err := t.noteAppendLocked(i, logged); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return TableTickReport{}, err
		}
	}

	rep := TableTickReport{}
	for i := 0; i < n; i++ {
		rep.Rotted += len(rotted[i])
	}

	t.mu.Lock()
	if t.cfg.DistillOnRot {
		// Absorb in ascending shard order: deterministic for a fixed
		// shard count, and identical to the pre-sharding engine at one
		// shard (the fungus and the shelf share one RNG stream there).
		for i := 0; i < n; i++ {
			if len(doomed[i]) == 0 {
				continue
			}
			if err := t.shelf.Absorb(RotContainer, now, t.cfg.ContainerHalfLife, doomed[i]); err != nil {
				t.mu.Unlock()
				return rep, err
			}
			rep.Distilled += len(doomed[i])
			t.ctrs.DistilledRot += uint64(len(doomed[i]))
		}
	}
	t.ctrs.Rotted += uint64(rep.Rotted)
	due := rep.Rotted > 0 && t.noteMutationLocked(1)
	t.mu.Unlock()
	if due {
		if err := t.Checkpoint(); err != nil {
			return rep, err
		}
	}

	rep.ContainersDiscarded = t.shelf.Tick()
	t.rlockAll()
	rep.Live = t.store.Len()
	t.runlockAll()
	return rep, nil
}

// WALInfo describes a table's persistence layout and durability state.
type WALInfo struct {
	// Persistent reports whether the table has a WAL at all.
	Persistent bool
	// LogShards is the number of per-shard WAL files.
	LogShards int
	// Generation is the committed snapshot generation (0 = no
	// checkpoint has completed yet).
	Generation uint64
	// SyncMode is the resolved durability level ("none", "grouped",
	// "strict").
	SyncMode string
	// GroupCommits counts fsync-backed group flushes (grouped mode
	// only).
	GroupCommits uint64
	// AvgGroupSize is the mean records per group commit — the
	// amortisation factor over per-append fsyncs (grouped mode only).
	AvgGroupSize float64
}

// WALInfo returns the table's current persistence layout; the zero
// value means the table is in-memory only (or closed).
func (t *Table) WALInfo() WALInfo {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.log == nil {
		return WALInfo{}
	}
	m := t.log.Manifest()
	info := WALInfo{
		Persistent: true,
		LogShards:  m.Shards,
		Generation: m.Generation,
		SyncMode:   t.durability.String(),
	}
	if t.gc != nil {
		st := t.gc.Stats()
		info.GroupCommits = st.Commits
		info.AvgGroupSize = st.AvgGroupSize()
	}
	return info
}

// Durability returns the table's resolved WAL sync level (never
// wal.DurabilityDefault).
func (t *Table) Durability() wal.DurabilityLevel { return t.durability }

// SyncWAL forces everything appended so far to disk, regardless of the
// durability level: grouped mode flushes the pending commit window
// (resolving its waits), the other modes fsync every shard log. No-op
// for in-memory tables. It takes no shard lock, so it can run
// concurrently with inserts — records appended after the call may or
// may not be covered.
func (t *Table) SyncWAL() error {
	t.mu.Lock()
	log, gc := t.log, t.gc
	t.mu.Unlock()
	if log == nil {
		return nil
	}
	if gc != nil {
		return gc.Flush()
	}
	return log.Sync()
}

// AuditZones checks every shard's zone maps against their live rows
// under the shard read locks (see storage.Store.AuditZones): the
// recovery, replication and differential tests call it wherever
// summaries are built or rebuilt.
func (t *Table) AuditZones() error {
	t.rlockAll()
	defer t.runlockAll()
	return t.store.AuditZones()
}

// Compact reclaims tombstone space in sealed segments of every shard.
func (t *Table) Compact() int {
	t.lockAll()
	defer t.unlockAll()
	return t.store.Compact()
}

// noteMutationLocked counts n logged mutations and reports whether a
// checkpoint is due — batch inserts pass their row count so
// CheckpointEvery keeps the same cadence as row-at-a-time ingestion.
// Caller holds t.mu; the checkpoint itself must run without shard
// locks held (it takes all of them).
func (t *Table) noteMutationLocked(n int) bool {
	if t.log == nil || n <= 0 {
		return false
	}
	t.mutations += n
	if t.cfg.CheckpointEvery > 0 && t.mutations >= t.cfg.CheckpointEvery {
		t.mutations = 0
		return true
	}
	return false
}

// Checkpoint snapshots a persistent table (every shard concurrently,
// committed by the WAL manifest) and truncates the per-shard logs. All
// shard locks are held for the duration, so the snapshot set is one
// consistent cut and no append can fall between the snapshots and the
// truncation.
func (t *Table) Checkpoint() error {
	t.lockAll()
	defer t.unlockAll()
	return t.checkpointHeld()
}

// checkpointHeld writes the snapshot; the caller holds all shard locks.
func (t *Table) checkpointHeld() error {
	if t.log == nil {
		if t.closed.Load() {
			// The table closed while this checkpoint was pending; the
			// final Close checkpoint already captured every mutation
			// that landed before it took the shard locks.
			return nil
		}
		return fmt.Errorf("core: table %q is not persistent", t.name)
	}
	if err := t.log.Checkpoint(t.store, t.workers); err != nil {
		return err
	}
	if t.gc != nil {
		// The committed snapshots captured every appended record (all
		// shard locks are held, so nothing new can have been noted),
		// which makes the pending window durable without an fsync.
		t.gc.ResolveCheckpointed()
	}
	t.mu.Lock()
	t.mutations = 0
	t.mu.Unlock()
	return nil
}

// Close checkpoints (when persistent) and releases the WAL. A closed
// table rejects further mutations.
func (t *Table) Close() error {
	t.lockAll()
	defer t.unlockAll()
	if t.closed.Swap(true) {
		return nil
	}
	if t.log == nil {
		return nil
	}
	// Stop the group-commit daemon before the final checkpoint: its
	// shutdown flush fsyncs everything pending, and nothing can be
	// noted afterwards (all shard locks are held), so the daemon never
	// races the log files closing below.
	var gcErr error
	if t.gc != nil {
		gcErr = t.gc.Close()
	}
	err := t.checkpointHeld()
	if err == nil {
		err = gcErr
	}
	cerr := t.log.Close()
	// t.log and t.gc are read under shard locks (append paths) and
	// under t.mu (checkpoint scheduling, SyncWAL, WALInfo); Close holds
	// all shard locks, so taking t.mu too makes the nil-out visible to
	// both classes of reader.
	t.mu.Lock()
	t.log = nil
	t.gc = nil
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return cerr
}
