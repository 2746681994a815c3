package core

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"fungusdb/internal/query"
	"fungusdb/internal/tuple"
)

// loadIoT fills a fresh table with a deterministic spread of rows.
func loadIoT(t *testing.T, db *DB, name string, shards, n int) *Table {
	t.Helper()
	tbl, err := db.CreateTable(name, TableConfig{Schema: iotSchema, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := tbl.Insert(Row(fmt.Sprintf("d%d", i%7), float64(i%50))); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// drainRows collects a prepared execution into a grid-shaped result.
func drainRows(t *testing.T, rows *query.Rows) (cols []string, out [][]tuple.Value) {
	t.Helper()
	defer rows.Close()
	cols = rows.Cols()
	for rows.Next() {
		row := rows.Values()
		cp := make([]tuple.Value, len(row))
		copy(cp, row)
		out = append(out, cp)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	return cols, out
}

// TestPreparedMatchesSQL asserts the acceptance criterion: the legacy
// Table.SQL front door and a prepared Execute produce identical grids,
// across shard counts (including the shards=1 determinism case) and
// across the streaming, aggregate, ordered and consume routes.
func TestPreparedMatchesSQL(t *testing.T) {
	stmts := []string{
		"SELECT * FROM t",
		"SELECT device, temp FROM t WHERE temp >= 25",
		"SELECT device, temp FROM t WHERE temp >= 25 LIMIT 7",
		"SELECT device, temp FROM t WHERE temp >= 25 ORDER BY temp DESC, device LIMIT 5",
		"SELECT device, COUNT(*) AS n, AVG(temp) AS avg FROM t GROUP BY device",
		"SELECT COUNT(*) FROM t WHERE device LIKE 'd1%'",
	}
	for _, shards := range []int{1, 4} {
		for _, src := range stmts {
			// Two identical tables: one answers through SQL, one through
			// a prepared execution, so consume statements stay comparable.
			db := openDB(t)
			a := loadIoT(t, db, "t", shards, 300)
			g, err := a.SQL(src)
			if err != nil {
				t.Fatalf("shards=%d SQL(%q): %v", shards, src, err)
			}
			db2 := openDB(t)
			b := loadIoT(t, db2, "t", shards, 300)
			pq, err := b.Prepare(src)
			if err != nil {
				t.Fatalf("shards=%d Prepare(%q): %v", shards, src, err)
			}
			rows, err := pq.Execute()
			if err != nil {
				t.Fatalf("shards=%d Execute(%q): %v", shards, src, err)
			}
			cols, got := drainRows(t, rows)
			if !reflect.DeepEqual(cols, g.Cols) {
				t.Fatalf("shards=%d %q cols = %v, want %v", shards, src, cols, g.Cols)
			}
			if len(got) != len(g.Rows) {
				t.Fatalf("shards=%d %q rows = %d, want %d", shards, src, len(got), len(g.Rows))
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], g.Rows[i]) {
					t.Fatalf("shards=%d %q row %d = %v, want %v", shards, src, i, got[i], g.Rows[i])
				}
			}
		}
	}
}

// TestPreparedConsumeMatchesQuery asserts CONSUME through the prepared
// path removes exactly what Table.SQL's consume removes — the matching
// set a peek counts beforehand.
func TestPreparedConsumeMatchesQuery(t *testing.T) {
	db := openDB(t)
	a := loadIoT(t, db, "t", 4, 200)
	want, err := a.SQL("SELECT COUNT(*) FROM t WHERE temp < 20")
	if err != nil {
		t.Fatal(err)
	}
	resA, err := answer(a, "temp < 20", query.Consume)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(resA)) != want.Rows[0][0].AsInt() || a.Len() != 200-len(resA) {
		t.Fatalf("consumed %d of %d matches, extent %d", len(resA), want.Rows[0][0].AsInt(), a.Len())
	}

	db2 := openDB(t)
	b := loadIoT(t, db2, "t", 4, 200)
	pq, err := b.Prepare("SELECT CONSUME * FROM t WHERE temp < 20")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := pq.Execute()
	if err != nil {
		t.Fatal(err)
	}
	_, got := drainRows(t, rows)
	if len(got) != len(resA) {
		t.Fatalf("consumed %d rows, Table.SQL consumed %d", len(got), len(resA))
	}
	if a.Len() != b.Len() {
		t.Fatalf("extents diverged: %d vs %d", a.Len(), b.Len())
	}
	if b.Counters().Consumed != a.Counters().Consumed {
		t.Fatalf("consumed counters diverged")
	}
}

// TestPreparedPlaceholders runs one prepared statement many times with
// different bindings and checks against per-binding ad-hoc queries.
func TestPreparedPlaceholders(t *testing.T) {
	db := openDB(t)
	tbl := loadIoT(t, db, "t", 4, 300)
	pq, err := tbl.Prepare("SELECT device, temp FROM t WHERE temp >= ? AND device = ?")
	if err != nil {
		t.Fatal(err)
	}
	if pq.NumParams() != 2 {
		t.Fatalf("NumParams = %d, want 2", pq.NumParams())
	}
	for _, c := range []struct {
		lo  float64
		dev string
	}{{10, "d1"}, {30, "d4"}, {49, "d0"}, {50, "d2"}} {
		rows, err := pq.Execute(tuple.Float(c.lo), tuple.String_(c.dev))
		if err != nil {
			t.Fatal(err)
		}
		_, got := drainRows(t, rows)
		g, err := tbl.SQL(fmt.Sprintf("SELECT device, temp FROM t WHERE temp >= %g AND device = '%s'", c.lo, c.dev))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(g.Rows) {
			t.Fatalf("binding %+v: %d rows, want %d", c, len(got), len(g.Rows))
		}
	}
	// Wrong arity fails before any scan.
	if _, err := pq.Execute(); err == nil {
		t.Fatal("missing parameters accepted")
	}
	if _, err := pq.Execute(tuple.Float(1), tuple.String_("d1"), tuple.Int(9)); err == nil {
		t.Fatal("extra parameters accepted")
	}
}

// TestStreamingDeliversInInsertionOrder drains a multi-shard stream
// and checks the k-way merge reproduces the global ID axis.
func TestStreamingDeliversInInsertionOrder(t *testing.T) {
	db := openDB(t)
	tbl := loadIoT(t, db, "t", 8, 5000)
	pq, err := tbl.Prepare("SELECT _id FROM t")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := pq.Execute()
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	n := 0
	last := int64(-1)
	for rows.Next() {
		id := rows.Values()[0].AsInt()
		if id <= last {
			t.Fatalf("IDs out of order: %d after %d", id, last)
		}
		last = id
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 5000 {
		t.Fatalf("streamed %d rows, want 5000", n)
	}
	if rows.Scanned() != 5000 {
		t.Fatalf("scanned = %d, want 5000", rows.Scanned())
	}
}

// TestStreamingEarlyCloseReleasesLocks abandons a stream mid-way and
// then mutates the table: Close must unwind the producer goroutines
// and their shard read locks promptly.
func TestStreamingEarlyCloseReleasesLocks(t *testing.T) {
	db := openDB(t)
	tbl := loadIoT(t, db, "t", 4, 4000)
	pq, err := tbl.Prepare("SELECT device FROM t")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := pq.Execute()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3 && rows.Next(); i++ {
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := tbl.Insert(Row("d0", 1.0))
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("insert blocked after Rows.Close: shard locks leaked")
	}
}

// TestStreamLockCycle builds the cycle a stream whose producers lock
// their shards late used to close: a reader holding shard 0 on its way
// to shard 1 (rlockAll's order, as a /metrics scrape or a tick takes
// them), writers queued on both shards, and a stream between them. The
// stream's shard-1 producer blocked on the merge, the merge waited for
// shard 0, whose producer queued behind the shard-0 writer, which
// waited for the reader, which queued behind the shard-1 writer, which
// waited for the shard-1 producer. Execute now read-locks every shard
// before returning, so the reader's second lock is granted and the
// stream completes once the reader lets go.
func TestStreamLockCycle(t *testing.T) {
	db := openDB(t)
	tbl := loadIoT(t, db, "t", 2, 2000) // 1000 rows a shard: several hand-off blocks each
	pq, err := tbl.Prepare("SELECT device FROM t")
	if err != nil {
		t.Fatal(err)
	}
	// writer takes shard i's write lock as an insert does and returns
	// once that writer is queued (new readers of the shard then wait
	// behind it) or already through.
	writer := func(i int) <-chan struct{} {
		done := make(chan struct{})
		go func() {
			tbl.shardMu[i].Lock()
			tbl.shardMu[i].Unlock()
			close(done)
		}()
		for {
			select {
			case <-done:
				return done
			default:
			}
			if !tbl.shardMu[i].TryRLock() {
				return done
			}
			tbl.shardMu[i].RUnlock()
			runtime.Gosched()
		}
	}

	tbl.shardMu[0].RLock() // the reader's first lock
	w0 := writer(0)
	streamed := make(chan int, 1)
	go func() {
		rows, err := pq.Execute()
		if err != nil {
			t.Error(err)
			streamed <- -1
			return
		}
		defer rows.Close()
		n := 0
		for rows.Next() {
			n++
		}
		if err := rows.Err(); err != nil {
			t.Error(err)
		}
		streamed <- n
	}()
	// A late-locking shard-1 producer read-locks its shard and fills the
	// merge's buffer within microseconds; the fixed stream is still in
	// Execute, queued on shard 0. The bound only decides how fast the
	// broken order is caught, never whether the fixed one passes.
	for deadline := time.Now().Add(200 * time.Millisecond); time.Now().Before(deadline); runtime.Gosched() {
		if !tbl.shardMu[1].TryLock() {
			break
		}
		tbl.shardMu[1].Unlock()
	}
	w1 := writer(1)
	second := make(chan struct{})
	go func() {
		tbl.shardMu[1].RLock() // the reader's second lock
		close(second)
	}()
	deadlocked := false
	select {
	case <-second:
	case <-time.After(5 * time.Second):
		deadlocked = true
	}
	// Letting go of shard 0 breaks the cycle if there is one, so the
	// test unwinds either way.
	tbl.shardMu[0].RUnlock()
	<-second
	tbl.shardMu[1].RUnlock()
	if deadlocked {
		t.Fatal("reader, writers and stream deadlocked: a stream producer took its shard lock after Execute returned")
	}
	<-w0
	<-w1
	select {
	case n := <-streamed:
		if n != 2000 {
			t.Fatalf("streamed %d rows, want 2000", n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stream never finished")
	}
}

// TestPlanCache asserts repeated compilations hit the LRU.
func TestPlanCache(t *testing.T) {
	db := openDB(t)
	tbl := loadIoT(t, db, "t", 2, 50)
	for i := 0; i < 5; i++ {
		if _, err := tbl.Prepare("SELECT device FROM t WHERE temp > 10"); err != nil {
			t.Fatal(err)
		}
		if _, err := tbl.SQL("SELECT COUNT(*) FROM t"); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses, size := tbl.PlanCacheStats()
	// First Prepare + first SQL miss; the other 4+4 hit.
	if misses != 2 || hits != 8 {
		t.Fatalf("cache hits=%d misses=%d size=%d, want 8/2", hits, misses, size)
	}
	if size != 2 {
		t.Fatalf("cache size = %d, want 2", size)
	}
}

// TestPlanCacheEviction fills past the cap and checks boundedness.
func TestPlanCacheEviction(t *testing.T) {
	c := newPlanCache(3)
	for i := 0; i < 10; i++ {
		c.put(fmt.Sprintf("k%d", i), &query.Plan{})
	}
	if _, _, size := c.stats(); size != 3 {
		t.Fatalf("size = %d, want 3", size)
	}
	if c.get("k0") != nil {
		t.Fatal("oldest entry survived eviction")
	}
	if c.get("k9") == nil {
		t.Fatal("newest entry evicted")
	}
	// Recency: touch k7, insert one more, k8 should fall out.
	if c.get("k7") == nil {
		t.Fatal("k7 missing")
	}
	c.put("k10", &query.Plan{})
	if c.get("k8") != nil {
		t.Fatal("LRU evicted the recently used entry instead")
	}
	if c.get("k7") == nil {
		t.Fatal("recently used entry evicted")
	}
}

// TestPrepareAskThroughPlan drives the container ask path through the
// prepared API.
func TestPrepareAskThroughPlan(t *testing.T) {
	db := openDB(t)
	tbl := loadIoT(t, db, "t", 2, 100)
	if _, err := answer(tbl, "temp >= 25", query.Consume, QueryOpts{Distill: "hot"}); err != nil {
		t.Fatal(err)
	}
	// Scalar question.
	pq, err := tbl.PrepareAsk("hot", "count")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := pq.Execute()
	if err != nil {
		t.Fatal(err)
	}
	_, got := drainRows(t, rows)
	if len(got) != 1 || got[0][0].AsFloat() != 50 {
		t.Fatalf("count rows = %v, want one row of 50", got)
	}
	// Parameterised membership question, reusing one prepared ask.
	has, err := tbl.PrepareAsk("hot", "has:device:?")
	if err != nil {
		t.Fatal(err)
	}
	for _, dev := range []string{"d0", "d1"} {
		rows, err := has.Execute(tuple.String_(dev))
		if err != nil {
			t.Fatal(err)
		}
		_, got := drainRows(t, rows)
		if len(got) != 1 || !got[0][0].AsBool() {
			t.Fatalf("has:device:%s = %v, want true", dev, got)
		}
	}
	// Unknown container: typed error.
	missing, err := tbl.PrepareAsk("nosuch", "count")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := missing.Execute(); err == nil {
		t.Fatal("ask against missing container succeeded")
	}
	// Unknown column: compile-time error.
	if _, err := tbl.PrepareAsk("hot", "ndv:nosuch"); err == nil {
		t.Fatal("unknown ask column compiled")
	}
}

// TestPreparedWrongTable pins the From-mismatch error.
func TestPreparedWrongTable(t *testing.T) {
	db := openDB(t)
	tbl := loadIoT(t, db, "t", 1, 10)
	if _, err := tbl.Prepare("SELECT * FROM other"); err == nil {
		t.Fatal("cross-table statement prepared")
	}
}

// TestPreparedQueryConcurrentReuse executes one PreparedQuery from
// many goroutines — plans must be immutable and shareable.
func TestPreparedQueryConcurrentReuse(t *testing.T) {
	db := openDB(t)
	tbl := loadIoT(t, db, "t", 4, 1000)
	pq, err := tbl.Prepare("SELECT device, COUNT(*) AS n FROM t WHERE temp >= ? GROUP BY device")
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 20; i++ {
				rows, err := pq.Execute(tuple.Float(float64(i)))
				if err != nil {
					errs <- err
					return
				}
				for rows.Next() {
				}
				if err := rows.Close(); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
