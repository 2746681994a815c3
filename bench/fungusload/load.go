package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"fungusdb/internal/catalog"
	"fungusdb/internal/core"
	"fungusdb/internal/fungus"
	"fungusdb/internal/query"
	"fungusdb/internal/server"
	"fungusdb/internal/tuple"
	"fungusdb/pkg/client"
)

// instance is one started system under test: engine, table, HTTP server
// on a loopback port, and one pkg/client connection per load goroutine.
type instance struct {
	w   *workload
	in  *inputs
	cfg config

	dir   string // data directory (persistent workloads)
	db    *core.DB
	tbl   *core.Table
	srv   *server.Server
	hs    *http.Server
	done  chan struct{} // closed when hs.Serve has returned
	conns []*conn
	meter *walMeter // persistent workloads

	pqs  []*core.PreparedQuery // per class, in-process handle
	want [][]int               // per class, per binding: expected row count (-1 unknown)

	nextBatch atomic.Int64 // position in the insert pool
	userBytes atomic.Int64 // tuple.AppendEncode bytes of every row the table took
	setup     time.Duration
	checks    tally // warm-up comparisons
}

// conn is one client connection and its prepared statements.
type conn struct {
	c     *client.Client
	tr    *http.Transport
	stmts []*client.Stmt // per class; nil for ad-hoc classes
}

// tally counts attempted and failed operations; the first few failures
// are kept for the report.
type tally struct {
	attempted, failed int
	notes             []string
}

func (t *tally) fail(format string, a ...any) {
	t.failed++
	if len(t.notes) < 5 {
		t.notes = append(t.notes, fmt.Sprintf(format, a...))
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, n := range o.notes {
		if len(t.notes) < 5 {
			t.notes = append(t.notes, n)
		}
	}
}

// setUp builds, preloads, starts and warms one instance. Its wall time
// is the setup_s metric; generating the inputs is not part of it.
func setUp(w *workload, in *inputs, cfg config) (inst *instance, err error) {
	start := time.Now()
	inst = &instance{w: w, in: in, cfg: cfg}
	defer func() {
		if err != nil {
			inst.tearDown()
		}
	}()
	dbc := core.DBConfig{Seed: cfg.seed}
	if w.persist {
		if inst.dir, err = os.MkdirTemp(cfg.tmp, w.name+"-"); err != nil {
			return inst, err
		}
		dbc.Dir = inst.dir
	}
	if inst.db, err = core.Open(dbc); err != nil {
		return inst, err
	}
	if w.persist {
		inst.tbl, err = inst.db.CreateTableFromSpec(catalog.TableSpec{
			Name: tableName, Schema: iotSchema, Shards: shards,
			Fungus:          &catalog.FungusSpec{Kind: "linear", Rate: w.decay},
			CheckpointEvery: scaled(checkpointEvery, cfg.scale, 1000),
			Durability:      "grouped",
		})
	} else {
		tc := core.TableConfig{Schema: in.schema, Shards: shards}
		if w.decay > 0 {
			tc.Fungus = fungus.Linear{Rate: w.decay}
		}
		inst.tbl, err = inst.db.CreateTable(tableName, tc)
	}
	if err != nil {
		return inst, err
	}
	if w.persist {
		inst.meter = &walMeter{tbl: inst.tbl, dir: filepath.Join(inst.dir, tableName)}
	}
	for at := 0; at < len(in.rows); at += 1000 {
		end := min(at+1000, len(in.rows))
		if _, err = inst.tbl.InsertBatch(in.rows[at:end]); err != nil {
			return inst, err
		}
		if w.persist {
			for _, row := range in.rows[at:end] {
				inst.userBytes.Add(int64(encodedLen(row)))
			}
			inst.meter.poll()
		}
	}
	for t := 0; t < w.steadyTicks; t++ {
		for b := 0; b < w.tickEvery; b++ {
			if _, err = inst.tbl.InsertBatch(typed(inst.nextPoolBatch())); err != nil {
				return inst, err
			}
		}
		if _, err = inst.db.Tick(); err != nil {
			return inst, err
		}
	}
	if w.persist {
		if err = inst.tbl.Checkpoint(); err != nil {
			return inst, err
		}
		inst.meter.poll()
	}

	inst.srv = server.New(inst.db)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return inst, err
	}
	inst.hs = &http.Server{Handler: inst.srv}
	inst.done = make(chan struct{})
	go func() {
		defer close(inst.done)
		_ = inst.hs.Serve(ln) // returns ErrServerClosed at tear-down
	}()
	base := "http://" + ln.Addr().String()
	nconn := max(w.queryClients, w.writers)
	if w.openLoopPerSec > 0 {
		nconn = w.queryClients + 1
	}
	for i := 0; i < nconn; i++ {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		inst.conns = append(inst.conns, &conn{c: client.New(base, &http.Client{Transport: tr}), tr: tr})
	}
	if err = inst.prepareAndWarm(); err != nil {
		return inst, err
	}
	runtime.GC()
	inst.setup = time.Since(start)
	return inst, nil
}

// encodedLen is the size of a row under tuple.AppendEncode, the user
// bytes that wal.bytes_per_user_byte divides by.
func encodedLen(row []tuple.Value) int {
	return len(tuple.AppendEncode(nil, tuple.New(1, 0, row)))
}

// pollMeter lets the WAL meter notice a checkpoint; in-memory workloads
// have none.
func (inst *instance) pollMeter() {
	if inst.meter != nil {
		inst.meter.poll()
	}
}

// nextPoolBatch hands out the insert pool's batches in order, cycling,
// and counts their user bytes.
func (inst *instance) nextPoolBatch() [][]any {
	b := int(inst.nextBatch.Add(1)-1) % len(inst.in.pool)
	inst.userBytes.Add(int64(inst.in.userBytes[b]))
	return inst.in.pool[b]
}

// prepareAndWarm prepares every class on every connection and in
// process, runs every binding of each class once over HTTP, and compares
// the first one's rows with PreparedQuery.Execute.
func (inst *instance) prepareAndWarm() error {
	in := inst.in
	inst.pqs = make([]*core.PreparedQuery, len(in.classes))
	inst.want = make([][]int, len(in.classes))
	for ci := range in.classes {
		cl := &in.classes[ci]
		inst.want[ci] = make([]int, len(cl.params))
		for i := range inst.want[ci] {
			inst.want[ci][i] = -1
		}
		if cl.adhoc {
			continue
		}
		pq, err := inst.tbl.Prepare(cl.sql)
		if err != nil {
			return fmt.Errorf("prepare %s: %w", cl.name, err)
		}
		inst.pqs[ci] = pq
	}
	for _, cn := range inst.conns {
		cn.stmts = make([]*client.Stmt, len(in.classes))
		for ci := range in.classes {
			if cl := &in.classes[ci]; !cl.adhoc {
				st, err := cn.c.Prepare(cl.sql)
				if err != nil {
					return fmt.Errorf("prepare %s over HTTP: %w", cl.name, err)
				}
				cn.stmts[ci] = st
			}
		}
	}
	static := !inst.w.writes() // row counts only repeat on a table nothing writes to
	for ci := range in.classes {
		cl := &in.classes[ci]
		if cl.consume {
			continue // verified by the conservation check at the end
		}
		for k := 0; k < min(len(cl.params), distinctParams); k++ {
			cn := inst.conns[k%len(inst.conns)]
			got, n, err := inst.httpQuery(cn, ci, k, k == 0)
			inst.checks.attempted++
			if err != nil {
				inst.checks.fail("warm-up %s: %v", cl.name, err)
				continue
			}
			if static {
				inst.want[ci][k] = n
			}
			if k > 0 {
				continue
			}
			want, _, err := inst.inProcess(ci, k, true)
			if err != nil {
				inst.checks.fail("in-process %s: %v", cl.name, err)
				continue
			}
			if inst.cfg.breakCheck && len(want) > 0 {
				want = want[1:]
			}
			if msg := diffRows(got, want); msg != "" {
				inst.checks.fail("%s: HTTP and in-process answers differ: %s", cl.name, msg)
			}
		}
	}
	// Warm the write path too: one batch and one tick per writer.
	for _, cn := range inst.writerConns() {
		if _, err := cn.c.Insert(tableName, inst.nextPoolBatch()); err != nil {
			return fmt.Errorf("warm-up insert: %w", err)
		}
		if _, err := cn.c.Tick(1); err != nil {
			return fmt.Errorf("warm-up tick: %w", err)
		}
	}
	return nil
}

// writerConns are the connections that insert: the open loop's one, or
// every closed-loop writer's.
func (inst *instance) writerConns() []*conn {
	switch {
	case inst.w.openLoopPerSec > 0:
		return inst.conns[inst.w.queryClients:]
	case inst.w.writers > 0:
		return inst.conns
	}
	return nil
}

// httpQuery sends request k of class ci on cn and drains the stream.
// It returns the rows themselves only when keep is set.
func (inst *instance) httpQuery(cn *conn, ci, k int, keep bool) (rows [][]any, n int, err error) {
	cl := &inst.in.classes[ci]
	text, params := cl.request(k)
	var rs *client.Rows
	if cl.adhoc {
		rs, err = cn.c.Query(text)
	} else {
		rs, err = cn.stmts[ci].Query(params...)
	}
	if err != nil {
		return nil, 0, err
	}
	for rs.Next() {
		if keep {
			rows = append(rows, append([]any(nil), rs.Row()...))
		}
		n++
	}
	err = rs.Err() // a mid-stream error line or a missing trailer
	if cerr := rs.Close(); err == nil {
		err = cerr
	}
	return rows, n, err
}

// inProcess answers request k of class ci the way the server does, minus
// HTTP: the prepared handle (ad-hoc text is compiled by Table.Prepare on
// every request), PreparedQuery.Execute, and a full drain. With keep it
// returns the rows, JSON-typed like the HTTP rows.
func (inst *instance) inProcess(ci, k int, keep bool) (rows [][]any, scanned int, err error) {
	cl := &inst.in.classes[ci]
	text, params := cl.request(k)
	pq := inst.pqs[ci]
	if cl.adhoc {
		if pq, err = inst.tbl.Prepare(text); err != nil {
			return nil, 0, err
		}
	}
	rs, err := pq.Execute(toValues(params)...)
	if err != nil {
		return nil, 0, err
	}
	defer rs.Close()
	for rs.Next() {
		vals := rowValues(rs)
		if !keep {
			continue
		}
		row := make([]any, len(vals))
		for i, v := range vals {
			switch v.Kind() {
			case tuple.KindInt:
				row[i] = float64(v.AsInt())
			case tuple.KindFloat:
				row[i] = v.AsFloat()
			case tuple.KindString:
				row[i] = v.AsString()
			case tuple.KindBool:
				row[i] = v.AsBool()
			}
		}
		rows = append(rows, row)
	}
	return rows, rs.Scanned(), rs.Err()
}

// rowValues is the current row of either kind of plan.
func rowValues(rs *query.Rows) []tuple.Value {
	if v := rs.Values(); v != nil {
		return v
	}
	return rs.Tuple().Attrs
}

func diffRows(got, want [][]any) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows over HTTP, %d in process", len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return fmt.Sprintf("row %d: %d values, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				return fmt.Sprintf("row %d col %d: %v, want %v", i, j, got[i][j], want[i][j])
			}
		}
	}
	return ""
}

// tearDown stops the server, waits for it, closes the engine and
// removes the data directory.
func (inst *instance) tearDown() {
	if inst.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := inst.hs.Shutdown(ctx); err != nil {
			_ = inst.hs.Close() // a stuck stream: drop the connections instead
		}
		cancel()
		<-inst.done
	}
	for _, cn := range inst.conns {
		cn.tr.CloseIdleConnections()
	}
	if inst.db != nil {
		_ = inst.db.Close() // final checkpoint of a directory that is deleted next
	}
	if inst.dir != "" {
		_ = os.RemoveAll(inst.dir)
	}
}

// opLog is what one load goroutine records for one class; goroutines
// own their logs, so recording takes no lock.
type opLog struct {
	samples []sample
}

// add logs an operation that ran from..end in a phase that began at t0.
func (l *opLog) add(t0, from, end time.Time, rows int) {
	l.samples = append(l.samples, sample{end: int64(end.Sub(t0)), dur: int64(end.Sub(from)), rows: int64(rows)})
}

// phase is the outcome of one measured load phase.
type phase struct {
	elapsed   time.Duration
	logs      map[string]*opLog // class name -> merged log
	lagMS     []float64         // open loop: how late each batch was sent
	cpu       time.Duration     // user+sys CPU of the process over the phase
	cpuAt     []cpuPoint        // the same, sampled as the phase went
	allocB    uint64            // MemStats.TotalAlloc delta
	gcPauseNS uint64
	ops       int
	tally     tally
}

// all returns the samples of every class of client operation, merged.
func (ph *phase) all() []sample {
	var out []sample
	for _, l := range ph.logs {
		out = append(out, l.samples...)
	}
	return out
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// worker is one load goroutine's private state.
type worker struct {
	logs  map[string]*opLog
	tally tally
	lagMS []float64
}

func (wk *worker) log(name string) *opLog {
	l := wk.logs[name]
	if l == nil {
		l = &opLog{}
		wk.logs[name] = l
	}
	return l
}

// sequence is the order in which one client sends the workload's
// requests: the class cycle, reshuffled every time round, so that which
// statements of two clients meet on the server is not fixed by how
// their loops happen to align. Each class walks its own bindings.
type sequence struct {
	rng  *rand.Rand
	deck []int
	at   int
	next []int // per class: the binding it sends next
}

func (inst *instance) newSequence(client int) *sequence {
	in := inst.in
	s := &sequence{rng: rand.New(rand.NewSource(inst.cfg.seed*31 + int64(client))), deck: append([]int(nil), in.cycle...)}
	s.at = len(s.deck)
	for ci := range in.classes {
		// Clients start their walks evenly apart, so two ad-hoc clients
		// never send texts the plan cache still holds from the other.
		s.next = append(s.next, client*len(in.classes[ci].params)/inst.w.queryClients)
	}
	return s
}

func (s *sequence) draw() (ci, k int) {
	if s.at == len(s.deck) {
		s.rng.Shuffle(len(s.deck), func(i, j int) { s.deck[i], s.deck[j] = s.deck[j], s.deck[i] })
		s.at = 0
	}
	ci = s.deck[s.at]
	s.at++
	k = s.next[ci]
	s.next[ci]++
	return ci, k
}

// runPhase drives the workload's traffic for d (or, for a fixed-count
// workload, until the count is done) and returns what the clients saw.
func (inst *instance) runPhase(d time.Duration) *phase {
	w := inst.w
	var workers []*worker
	var wg sync.WaitGroup
	start := func(fn func(*worker)) {
		wk := &worker{logs: map[string]*opLog{}}
		workers = append(workers, wk)
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(wk)
		}()
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	t0 := time.Now()
	deadline := t0.Add(d)

	switch {
	case w.writers > 0:
		total := int64(float64(w.batchesPerSec) * d.Seconds())
		var issued atomic.Int64
		// A commit that made ingest many times slower must still end
		// inside the driver's limit; batches not sent by then fail.
		cutoff := t0.Add(5*d + 20*time.Second)
		for i := 0; i < w.writers; i++ {
			cn := inst.conns[i]
			start(func(wk *worker) {
				for {
					k := issued.Add(1)
					if k > total {
						return
					}
					if time.Now().After(cutoff) {
						wk.tally.attempted++
						wk.tally.fail("batch %d not sent: phase overran", k)
						continue
					}
					inst.insert(wk, cn, t0, time.Time{})
					if k%int64(w.tickEvery) == 0 {
						inst.tick(wk, cn, t0)
					}
				}
			})
		}
	default:
		for i := 0; i < w.queryClients; i++ {
			cn, seq := inst.conns[i], inst.newSequence(i)
			start(func(wk *worker) {
				for time.Now().Before(deadline) {
					inst.query(wk, cn, t0, seq)
				}
			})
		}
		if w.openLoopPerSec > 0 {
			cn := inst.conns[w.queryClients]
			start(func(wk *worker) {
				gap := time.Second / time.Duration(w.openLoopPerSec)
				free := t0 // when the connection finished its previous operation
				for k := 0; ; k++ {
					due := t0.Add(time.Duration(k) * gap)
					if !due.Before(deadline) {
						return
					}
					if wait := time.Until(due); wait > 0 {
						time.Sleep(wait)
					}
					// The generator's own lateness: from when it could have
					// sent (the batch was due and the connection free) to
					// now. What a slow system adds is in the latency, which
					// counts from the due time.
					ready := due
					if free.After(due) {
						ready = free
					}
					wk.lagMS = append(wk.lagMS, float64(time.Since(ready))/1e6)
					inst.insert(wk, cn, t0, due)
					if (k+1)%w.tickEvery == 0 {
						inst.tick(wk, cn, t0)
					}
					free = time.Now()
				}
			})
		}
	}
	// Sample the process's CPU time as the phase goes, so that CPU per
	// operation can be taken over parts of it.
	cpuAt := []cpuPoint{{0, 0}}
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				cpuAt = append(cpuAt, cpuPoint{int64(time.Since(t0)), int64(cpuTime() - cpu0)})
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-sampled
	ph := &phase{elapsed: time.Since(t0), logs: map[string]*opLog{}}
	ph.cpu = cpuTime() - cpu0
	ph.cpuAt = append(cpuAt, cpuPoint{int64(ph.elapsed), int64(ph.cpu)})
	runtime.ReadMemStats(&ms1)
	ph.allocB = ms1.TotalAlloc - ms0.TotalAlloc
	ph.gcPauseNS = ms1.PauseTotalNs - ms0.PauseTotalNs
	for _, wk := range workers {
		ph.tally.add(wk.tally)
		ph.lagMS = append(ph.lagMS, wk.lagMS...)
		for name, l := range wk.logs {
			m := ph.logs[name]
			if m == nil {
				m = &opLog{}
				ph.logs[name] = m
			}
			m.samples = append(m.samples, l.samples...)
			ph.ops += len(l.samples)
		}
	}
	return ph
}

// query sends the client's next request, drains it, checks the row count
// where the table is static, and logs issue -> last row drained.
func (inst *instance) query(wk *worker, cn *conn, t0 time.Time, seq *sequence) {
	ci, k := seq.draw()
	cl := &inst.in.classes[ci]
	from := time.Now()
	_, n, err := inst.httpQuery(cn, ci, k, false)
	end := time.Now()
	wk.tally.attempted++
	switch want := inst.want[ci][k%len(cl.params)]; {
	case err != nil:
		wk.tally.fail("%s: %v", cl.name, err)
	case want >= 0 && n != want:
		wk.tally.fail("%s binding %d: %d rows, want %d", cl.name, k%len(cl.params), n, want)
	}
	wk.log(cl.name).add(t0, from, end, n)
}

// insert posts the next pool batch. An open-loop caller passes the time
// the batch was due, and the latency counts from then.
func (inst *instance) insert(wk *worker, cn *conn, t0, due time.Time) {
	rows := inst.nextPoolBatch()
	from := time.Now()
	res, err := cn.c.Insert(tableName, rows)
	end := time.Now()
	if !due.IsZero() {
		from = due
	}
	wk.tally.attempted++
	switch {
	case err != nil:
		wk.tally.fail("insert: %v", err)
	case res.Inserted != len(rows):
		wk.tally.fail("insert: %d rows acknowledged, sent %d", res.Inserted, len(rows))
	}
	wk.log("insert").add(t0, from, end, len(rows))
	inst.pollMeter()
}

func (inst *instance) tick(wk *worker, cn *conn, t0 time.Time) {
	from := time.Now()
	_, err := cn.c.Tick(1)
	end := time.Now()
	wk.tally.attempted++
	if err != nil {
		wk.tally.fail("tick: %v", err)
	}
	wk.log("tick").add(t0, from, end, 0)
	inst.pollMeter()
}

// conservation asserts the paper's accounting: every inserted tuple is
// live, rotted or consumed, exactly once.
func (inst *instance) conservation(t *tally) {
	c := inst.tbl.Counters()
	live := uint64(inst.tbl.Len())
	t.attempted++
	if inst.cfg.breakCheck {
		live++
	}
	if c.Inserted != live+c.Rotted+c.Consumed {
		t.fail("conservation: inserted %d != live %d + rotted %d + consumed %d", c.Inserted, live, c.Rotted, c.Consumed)
	}
}

// restart is what the recovery drill measured.
type restart struct {
	checkpointS    float64 // the Table.Checkpoint that fixed the image's shape
	walPerUserByte float64 // bytes written under the data directory / user bytes, over the instance's life
	missed         int     // checkpoints the WAL meter did not see: walPerUserByte is then too low
	recovery       opLog   // core.Open on the crash image -> COUNT(*) answered
}

// recoveryDrill gives the data directory a fixed shape — a checkpoint, then
// recoveryTail more batches and their ticks in the logs, so that every
// run replays the same amount — syncs the WAL, copies the directory as it
// would lie after a crash, and times core.Open on a copy until SELECT
// COUNT(*) answers, several times. The count must equal the live count at
// the copy.
func (inst *instance) recoveryDrill(times int, t *tally) (*restart, error) {
	out := &restart{}
	from := time.Now()
	if err := inst.tbl.Checkpoint(); err != nil {
		return nil, err
	}
	out.checkpointS = time.Since(from).Seconds()
	inst.pollMeter()
	for i := 1; i <= scaled(recoveryTail, inst.cfg.scale, 2); i++ {
		if _, err := inst.tbl.InsertBatch(typed(inst.nextPoolBatch())); err != nil {
			return nil, err
		}
		if i%inst.w.tickEvery == 0 {
			if _, err := inst.db.Tick(); err != nil {
				return nil, err
			}
		}
	}
	if err := inst.tbl.SyncWAL(); err != nil {
		return nil, err
	}
	written, missed := inst.meter.total()
	out.walPerUserByte, out.missed = float64(written)/float64(inst.userBytes.Load()), missed
	live := inst.tbl.Len()
	if inst.cfg.breakCheck {
		live++
	}
	image := inst.dir + "-image"
	defer os.RemoveAll(image)
	if err := copyDir(inst.dir, image); err != nil {
		return nil, err
	}
	for i := 0; i < times; i++ {
		work := fmt.Sprintf("%s-recover%d", inst.dir, i)
		if err := copyDir(image, work); err != nil {
			return nil, err
		}
		from := time.Now()
		n, err := openAndCount(work, inst.cfg.seed)
		end := time.Now()
		_ = os.RemoveAll(work)
		t.attempted++
		switch {
		case err != nil:
			t.fail("recovery: %v", err)
		case n != live:
			t.fail("recovery: COUNT(*) = %d, live count at the copy was %d", n, live)
		}
		out.recovery.add(from, from, end, n)
	}
	return out, nil
}

func openAndCount(dir string, seed int64) (int, error) {
	db, err := core.Open(core.DBConfig{Seed: seed, Dir: dir})
	if err != nil {
		return 0, err
	}
	defer db.Close()
	tbl, err := db.Table(tableName)
	if err != nil {
		return 0, err
	}
	pq, err := tbl.Prepare("SELECT COUNT(*) FROM t")
	if err != nil {
		return 0, err
	}
	rs, err := pq.Execute()
	if err != nil {
		return 0, err
	}
	defer rs.Close()
	if !rs.Next() {
		return 0, fmt.Errorf("COUNT(*) returned no row: %v", rs.Err())
	}
	return int(rs.Values()[0].AsInt()), nil
}

func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// walMeter adds up the bytes a persistent table writes under its data
// directory: at every checkpoint the logs as they were just before
// truncation plus the new snapshot files, and at the end the log tails.
// Every client polls it after each insert and tick it sent. A checkpoint
// is due only every checkpointEvery mutations, so none passes unseen; one
// that did would be counted in missed.
type walMeter struct {
	mu      sync.Mutex
	tbl     *core.Table
	dir     string
	gen     uint64
	written int64
	missed  int
}

func (wm *walMeter) poll() {
	wm.mu.Lock()
	defer wm.mu.Unlock()
	gen := wm.tbl.WALInfo().Generation
	if gen == wm.gen {
		return
	}
	wm.missed += int(gen - wm.gen - 1)
	wm.gen = gen
	if tr, ok := wm.tbl.ShipLog().LastTruncation(); ok {
		for _, s := range tr.Sizes {
			wm.written += s
		}
	}
	wm.written += globSize(filepath.Join(wm.dir, fmt.Sprintf("snapshot.%d.*.db", gen)))
}

// total returns the bytes written so far, log tails included, and how
// many checkpoints went unseen.
func (wm *walMeter) total() (written int64, missed int) {
	wm.poll()
	wm.mu.Lock()
	defer wm.mu.Unlock()
	return wm.written + globSize(filepath.Join(wm.dir, "wal.*.log")), wm.missed
}

func globSize(pattern string) int64 {
	var n int64
	names, _ := filepath.Glob(pattern) // the pattern is well-formed
	for _, name := range names {
		if fi, err := os.Stat(name); err == nil {
			n += fi.Size()
		}
	}
	return n
}
