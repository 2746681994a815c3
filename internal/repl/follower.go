// Package repl is the follower side of WAL log-shipping replication: a
// daemon that discovers a leader's replicable tables, mirrors each one
// as an in-memory read-only replica, and tails the leader's per-shard
// WAL over POST /v2/replicate, applying shipped frames through the same
// replay machinery crash recovery uses (see internal/core's replica
// surface).
//
// Cursor discipline — this is where exactly-once lives:
//
//   - `confirmed` is the reconnect cursor: generation plus per-shard
//     byte offsets, advanced only at commit lines (the leader's
//     group-commit window boundaries). A reconnect always resumes from
//     confirmed, so the leader may re-deliver anything applied since.
//   - `applied` tracks per-shard bytes actually applied, which can run
//     ahead of confirmed between commits. Re-delivered bytes below
//     applied are trimmed before apply — offsets only ever advance by
//     whole frames, so the trim is always frame-aligned. Every record
//     therefore applies exactly once, even though the wire delivers
//     at-least-once. (Idempotence of inserts/evicts alone would not be
//     enough: replaying a tick record twice would decay freshness
//     twice.)
//   - A batch is validated as whole frames before any of it applies; a
//     torn or corrupt batch is rejected up front and re-delivered
//     intact after reconnect, so a tick can never half-apply.
//
// Generation fencing: a leader that answers with the stable
// "stale_generation" code (the follower's cursor names a generation the
// leader never produced) permanently fences the table — retrying would
// splice divergent histories — and the error is pinned in its status.
package repl

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"fungusdb/internal/catalog"
	"fungusdb/internal/core"
	"fungusdb/internal/server"
	"fungusdb/internal/wal"
	"fungusdb/pkg/client"
)

// Config tunes a Follower.
type Config struct {
	// Leader is the leader server's base URL, e.g. "http://10.0.0.5:8044".
	Leader string
	// DB is the follower-side database replicas are created in. Tables
	// are created as in-memory read-only replicas of the leader's specs.
	DB *core.DB
	// HTTPClient overrides the transport (tests inject fault-injecting
	// round trippers). Nil uses http.DefaultClient.
	HTTPClient *http.Client
	// PollTables is the leader catalog re-list interval (new tables get
	// picked up). 0 means 2s.
	PollTables time.Duration
	// Backoff is the delay before reconnecting a dropped stream. 0
	// means 100ms.
	Backoff time.Duration

	// OnApplied, when set, runs after each applied record batch, before
	// any cursor confirmation. Returning an error aborts the stream —
	// the crash-injection tests use it to kill the session mid-apply.
	OnApplied func(table string, shard int, st core.ApplyStats) error
	// OnCommit, when set, runs after a commit line advances the
	// confirmed cursor. Returning an error aborts the stream — the
	// convergence tests use it to inject disconnects at fuzzed commit
	// boundaries.
	OnCommit func(table string, c client.ReplCommit) error
}

// Follower tails one leader, mirroring every replicable table.
type Follower struct {
	cfg    Config
	cl     *client.Client
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu     sync.Mutex
	tables map[string]*tableRepl
}

// tableRepl is one table's replication state.
type tableRepl struct {
	f    *Follower
	name string
	tbl  *core.Table

	mu           sync.Mutex
	confirmed    client.ReplCursor // reconnect cursor (commit-granular)
	gen          uint64            // generation of the live stream
	applied      []int64           // per-shard applied byte offsets (ahead of confirmed between commits)
	appliedRecs  []uint64          // per-shard records applied this generation
	leaderCounts []uint64          // leader's per-shard record counts from the last commit/ping
	inserts      uint64
	evicts       uint64
	ticks        uint64
	batches      uint64
	reconnects   uint64
	rebases      uint64
	connected    bool
	fenced       bool
	lastErr      error
}

// TableStatus is a point-in-time snapshot of one table's replication
// position.
type TableStatus struct {
	Table      string
	Leader     string
	Generation uint64
	LagRecords uint64 // leader records not yet applied (0 when counts unknown)
	HaveCounts bool   // at least one commit/ping received this generation
	// AppliedRecords is the total records applied this generation
	// (including idempotent skips) — the follower-side half of the
	// exactly-once ledger a harness checks against the leader's
	// RecordCounts.
	AppliedRecords uint64
	Inserts        uint64
	Evicts         uint64
	Ticks          uint64
	Batches        uint64
	Reconnects     uint64
	Rebases        uint64
	Connected      bool
	Fenced         bool
	Err            error
}

// Start connects to the leader, mirrors its current replicable tables,
// and begins tailing each one. Table discovery then repeats every
// PollTables. An unreachable leader is not fatal — discovery retries in
// the background.
func Start(cfg Config) (*Follower, error) {
	if cfg.Leader == "" {
		return nil, fmt.Errorf("repl: no leader address")
	}
	if cfg.DB == nil {
		return nil, fmt.Errorf("repl: no follower DB")
	}
	if cfg.PollTables <= 0 {
		cfg.PollTables = 2 * time.Second
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 100 * time.Millisecond
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &Follower{
		cfg:    cfg,
		cl:     client.New(cfg.Leader, cfg.HTTPClient),
		ctx:    ctx,
		cancel: cancel,
		tables: make(map[string]*tableRepl),
	}
	f.discover() // best effort; background loop retries
	f.wg.Add(1)
	go f.discoverLoop()
	return f, nil
}

// Stop aborts every stream and waits for the daemon to wind down. The
// replica tables stay queryable.
func (f *Follower) Stop() {
	f.cancel()
	f.wg.Wait()
}

func (f *Follower) discoverLoop() {
	defer f.wg.Done()
	t := time.NewTicker(f.cfg.PollTables)
	defer t.Stop()
	for {
		select {
		case <-f.ctx.Done():
			return
		case <-t.C:
			f.discover()
		}
	}
}

// discover lists the leader's replicable specs and starts tailing any
// table not yet mirrored.
func (f *Follower) discover() {
	raws, err := f.cl.ReplTables()
	if err != nil {
		return
	}
	for _, raw := range raws {
		var spec catalog.TableSpec
		if err := json.Unmarshal(raw, &spec); err != nil || spec.Name == "" {
			continue
		}
		f.mu.Lock()
		if _, ok := f.tables[spec.Name]; ok {
			f.mu.Unlock()
			continue
		}
		tbl, err := f.cfg.DB.CreateReplicaFromSpec(spec)
		if err != nil {
			// Name collision with a local table, or an unbuildable spec:
			// skip; re-listing will not retry a created table.
			f.mu.Unlock()
			continue
		}
		tr := &tableRepl{f: f, name: spec.Name, tbl: tbl}
		f.tables[spec.Name] = tr
		f.mu.Unlock()
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			tr.run(f.ctx)
		}()
	}
}

// run is one table's tail loop: stream, reconnect on failure, stop on
// fencing or shutdown.
func (tr *tableRepl) run(ctx context.Context) {
	for {
		err := tr.streamOnce(ctx)
		tr.setConnected(false)
		if ctx.Err() != nil {
			return
		}
		if err != nil && errCode(err) == "stale_generation" {
			tr.mu.Lock()
			tr.fenced = true
			tr.lastErr = err
			tr.mu.Unlock()
			return
		}
		tr.mu.Lock()
		tr.lastErr = err
		tr.reconnects++
		tr.mu.Unlock()
		select {
		case <-ctx.Done():
			return
		case <-time.After(tr.f.cfg.Backoff):
		}
	}
}

// errCode extracts the server's stable error code, if any.
func errCode(err error) string {
	var e *client.Error
	if errors.As(err, &e) {
		return e.Code
	}
	return ""
}

// streamOnce opens one replication stream from the confirmed cursor and
// applies it until it breaks.
func (tr *tableRepl) streamOnce(ctx context.Context) error {
	st, err := tr.f.cl.Replicate(tr.name, tr.cursor())
	if err != nil {
		return err
	}
	defer st.Close()
	stop := context.AfterFunc(ctx, func() { st.Close() })
	defer stop()

	ev, err := st.Next()
	if err != nil {
		return err
	}
	if ev.Header == nil {
		return fmt.Errorf("repl: %s: stream opened without a header", tr.name)
	}
	hdr := ev.Header
	shards := tr.tbl.Shards()
	if hdr.Shards != shards {
		return fmt.Errorf("repl: %s: leader ships %d shards, replica has %d", tr.name, hdr.Shards, shards)
	}
	switch hdr.Mode {
	case "tail":
		tr.beginTail(hdr)
	case "rebase":
		if err := tr.rebase(st, hdr); err != nil {
			return err
		}
	default:
		return fmt.Errorf("repl: %s: unknown stream mode %q", tr.name, hdr.Mode)
	}
	tr.setConnected(true)

	for {
		ev, err := st.Next()
		if err != nil {
			return err
		}
		switch {
		case ev.Recs != nil:
			if err := tr.applyRecs(ev.Recs); err != nil {
				return err
			}
		case ev.Commit != nil:
			if err := tr.onCommit(*ev.Commit); err != nil {
				return err
			}
		case ev.Ping != nil:
			tr.onPing(*ev.Ping)
		case ev.End != nil:
			// "rebase_required": reconnect immediately; the leader will
			// answer the (stale) confirmed cursor with a rebase stream.
			return nil
		case ev.Snap != nil:
			return fmt.Errorf("repl: %s: snapshot chunk outside a rebase", tr.name)
		}
	}
}

// beginTail aligns the in-memory stream state with a tail-mode header.
// A header generation beyond the confirmed one is the caught-up
// rollover accepted at connect time: the cursor was exactly at the last
// truncation, so the new generation starts at offset zero everywhere.
func (tr *tableRepl) beginTail(hdr *client.ReplHeader) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	shards := tr.tbl.Shards()
	if tr.applied == nil {
		tr.applied = make([]int64, shards)
		copy(tr.applied, tr.confirmed.Offsets)
		tr.appliedRecs = make([]uint64, shards)
	}
	if hdr.Generation != tr.confirmed.Generation {
		tr.gen = hdr.Generation
		tr.confirmed = client.ReplCursor{Generation: hdr.Generation, Offsets: make([]int64, shards)}
		tr.applied = make([]int64, shards)
		tr.appliedRecs = make([]uint64, shards)
		tr.leaderCounts = nil
		return
	}
	tr.gen = hdr.Generation
	// applied may be ahead of confirmed (uncommitted applies from the
	// previous session); keep it — re-delivered bytes below it trim.
}

// rebase discards the replica and rebuilds it from the leader's shipped
// snapshots, then positions the cursor at the snapshot generation's
// offset zero.
func (tr *tableRepl) rebase(st *client.ReplStream, hdr *client.ReplHeader) error {
	if err := tr.tbl.ResetReplica(); err != nil {
		return err
	}
	shards := tr.tbl.Shards()
	pending := make([][]byte, shards)
	done := make([]bool, shards)
	remaining := shards
	for remaining > 0 {
		ev, err := st.Next()
		if err != nil {
			return err
		}
		if ev.Snap == nil {
			return fmt.Errorf("repl: %s: rebase wants %d more snapshot shards, got other event", tr.name, remaining)
		}
		i := ev.Snap.Shard
		if i < 0 || i >= shards || done[i] {
			return fmt.Errorf("repl: %s: bad rebase snapshot shard %d", tr.name, i)
		}
		pending[i] = append(pending[i], ev.Snap.Data...)
		if !ev.Snap.Last {
			continue
		}
		var next uint64
		if i < len(hdr.NextIDs) {
			next = hdr.NextIDs[i]
		}
		if err := tr.tbl.ApplyShardSnapshot(i, pending[i], next); err != nil {
			return err
		}
		pending[i] = nil
		done[i] = true
		remaining--
	}
	tr.tbl.FinishRebase()
	tr.mu.Lock()
	tr.gen = hdr.Generation
	tr.confirmed = client.ReplCursor{Generation: hdr.Generation, Offsets: make([]int64, shards)}
	tr.applied = make([]int64, shards)
	tr.appliedRecs = make([]uint64, shards)
	tr.leaderCounts = nil
	tr.rebases++
	tr.mu.Unlock()
	return nil
}

// applyRecs applies one shipped record batch, trimming any re-delivered
// frame-aligned prefix so each record applies exactly once.
func (tr *tableRepl) applyRecs(rc *client.ReplRecs) error {
	i := rc.Shard
	if i < 0 || i >= tr.tbl.Shards() {
		return fmt.Errorf("repl: %s: recs for shard %d out of range", tr.name, i)
	}
	tr.mu.Lock()
	appliedAt := tr.applied[i]
	tr.mu.Unlock()
	data, from := rc.Data, rc.From
	if from > appliedAt {
		return fmt.Errorf("repl: %s: shard %d stream gap: recs at %d but applied %d", tr.name, i, from, appliedAt)
	}
	if from+int64(len(data)) <= appliedAt {
		return nil // whole batch re-delivered and already applied
	}
	if from < appliedAt {
		data = data[appliedAt-from:] // frame-aligned: offsets advance by whole frames only
	}
	// Validate the whole batch before applying any of it: a torn or
	// corrupt batch must be rejected up front, because retrying a
	// half-applied batch would replay its tick records twice.
	if n, _ := wal.FrameScan(data); n != int64(len(data)) {
		return fmt.Errorf("repl: %s: shard %d: torn or corrupt record batch (%d of %d bytes valid)",
			tr.name, i, n, len(data))
	}
	st, err := tr.tbl.ApplyShipped(i, data)
	if err != nil {
		return err
	}
	tr.mu.Lock()
	tr.applied[i] += int64(len(data))
	tr.appliedRecs[i] += uint64(st.Inserts + st.Evicts + st.Ticks + st.Skipped)
	tr.inserts += uint64(st.Inserts)
	tr.evicts += uint64(st.Evicts)
	tr.ticks += uint64(st.Ticks)
	tr.batches++
	tr.mu.Unlock()
	if tr.f.cfg.OnApplied != nil {
		if err := tr.f.cfg.OnApplied(tr.name, i, st); err != nil {
			return err
		}
	}
	return nil
}

// onCommit advances the confirmed cursor (or rolls the stream over to a
// fresh generation when the leader checkpointed under a caught-up
// cursor).
func (tr *tableRepl) onCommit(c client.ReplCommit) error {
	tr.mu.Lock()
	if c.Reset {
		shards := tr.tbl.Shards()
		tr.gen = c.Generation
		tr.confirmed = client.ReplCursor{Generation: c.Generation, Offsets: make([]int64, shards)}
		tr.applied = make([]int64, shards)
		tr.appliedRecs = make([]uint64, shards)
	} else if c.Generation == tr.gen {
		offs := make([]int64, len(tr.applied))
		copy(offs, tr.applied)
		tr.confirmed = client.ReplCursor{Generation: tr.gen, Offsets: offs}
	}
	tr.leaderCounts = append([]uint64(nil), c.Counts...)
	tr.mu.Unlock()
	if tr.f.cfg.OnCommit != nil {
		if err := tr.f.cfg.OnCommit(tr.name, c); err != nil {
			return err
		}
	}
	return nil
}

func (tr *tableRepl) onPing(c client.ReplCommit) {
	tr.mu.Lock()
	if c.Generation == tr.gen {
		tr.leaderCounts = append([]uint64(nil), c.Counts...)
	}
	tr.mu.Unlock()
}

func (tr *tableRepl) cursor() client.ReplCursor {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	cur := tr.confirmed
	cur.Offsets = append([]int64(nil), tr.confirmed.Offsets...)
	return cur
}

func (tr *tableRepl) setConnected(v bool) {
	tr.mu.Lock()
	tr.connected = v
	tr.mu.Unlock()
}

// status snapshots the table's replication position.
func (tr *tableRepl) status() TableStatus {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	st := TableStatus{
		Table: tr.name, Leader: tr.f.cfg.Leader, Generation: tr.gen,
		HaveCounts: tr.leaderCounts != nil,
		Inserts:    tr.inserts, Evicts: tr.evicts, Ticks: tr.ticks,
		Batches: tr.batches, Reconnects: tr.reconnects, Rebases: tr.rebases,
		Connected: tr.connected, Fenced: tr.fenced, Err: tr.lastErr,
	}
	for _, ap := range tr.appliedRecs {
		st.AppliedRecords += ap
	}
	for i, lc := range tr.leaderCounts {
		var ap uint64
		if i < len(tr.appliedRecs) {
			ap = tr.appliedRecs[i]
		}
		if lc > ap {
			st.LagRecords += lc - ap
		}
	}
	return st
}

// Status snapshots every mirrored table's replication position, in
// sorted table order — the block is rendered verbatim by fungusctl
// stats and the metrics collector, so its order is part of the output.
func (f *Follower) Status() []TableStatus {
	f.mu.Lock()
	trs := make([]*tableRepl, 0, len(f.tables))
	//fungusvet:allow determinism -- collected slice is sorted by table name below
	for _, tr := range f.tables {
		trs = append(trs, tr)
	}
	f.mu.Unlock()
	sort.Slice(trs, func(i, j int) bool { return trs[i].name < trs[j].name })
	out := make([]TableStatus, 0, len(trs))
	for _, tr := range trs {
		out = append(out, tr.status())
	}
	return out
}

// TableStatus snapshots one table's replication position.
func (f *Follower) TableStatus(name string) (TableStatus, bool) {
	f.mu.Lock()
	tr, ok := f.tables[name]
	f.mu.Unlock()
	if !ok {
		return TableStatus{}, false
	}
	return tr.status(), true
}

// ServerStatus adapts TableStatus to the HTTP server's stats shape;
// pass it as server.Config.ReplStatus on a follower front end.
func (f *Follower) ServerStatus(name string) (server.ReplStatus, bool) {
	st, ok := f.TableStatus(name)
	if !ok {
		return server.ReplStatus{}, false
	}
	return server.ReplStatus{
		Leader: st.Leader, Generation: st.Generation, LagRecords: st.LagRecords,
		Inserts: st.Inserts, Evicts: st.Evicts, Ticks: st.Ticks,
		Batches: st.Batches, Reconnects: st.Reconnects, Rebases: st.Rebases,
		Connected: st.Connected,
	}, true
}
