package core

import (
	"strings"
	"sync"
	"testing"

	"fungusdb/internal/clock"
	"fungusdb/internal/fungus"
	"fungusdb/internal/query"
	"fungusdb/internal/tuple"
)

var iotSchema = tuple.MustSchema(
	tuple.Column{Name: "device", Kind: tuple.KindString},
	tuple.Column{Name: "temp", Kind: tuple.KindFloat},
)

// answer runs SelectTuples over tbl with the given options and
// rebuilds the answer's tuples.
func answer(tbl *Table, where string, mode query.Mode, opts ...QueryOpts) ([]tuple.Tuple, error) {
	pq, err := tbl.Prepare(SelectTuples(tbl.Name(), mode == query.Consume, where))
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
	var out []tuple.Tuple
	for rows.Next() {
		// RowTuple's Attrs alias the row, which the next Next may
		// recycle, so the tuple gets a copy.
		out = append(out, RowTuple(append([]tuple.Value(nil), rows.Values()...)))
	}
	return out, rows.Close()
}

func openDB(t *testing.T) *DB {
	t.Helper()
	db, err := Open(DBConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestCreateAndLookupTables(t *testing.T) {
	db := openDB(t)
	if _, err := db.CreateTable("a", TableConfig{Schema: iotSchema}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("b", TableConfig{Schema: iotSchema}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("a", TableConfig{Schema: iotSchema}); err == nil {
		t.Error("duplicate table accepted")
	}
	if _, err := db.CreateTable("", TableConfig{Schema: iotSchema}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := db.CreateTable("c", TableConfig{}); err == nil {
		t.Error("nil schema accepted")
	}
	if got := db.Tables(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Tables = %v", got)
	}
	if _, err := db.Table("a"); err != nil {
		t.Error(err)
	}
	if _, err := db.Table("nope"); err == nil {
		t.Error("missing table lookup succeeded")
	}
	if err := db.DropTable("a"); err != nil {
		t.Error(err)
	}
	if err := db.DropTable("a"); err == nil {
		t.Error("double drop succeeded")
	}
}

func TestInsertAndPeekQuery(t *testing.T) {
	db := openDB(t)
	tbl, _ := db.CreateTable("iot", TableConfig{Schema: iotSchema})
	for i := 0; i < 10; i++ {
		if _, err := tbl.Insert(Row("sensor-1", float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	pq, err := tbl.Prepare("SELECT * FROM iot WHERE temp >= 5")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := pq.Execute()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for ; rows.Next(); n++ {
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if n != 5 || rows.Scanned() != 10 {
		t.Errorf("len=%d scanned=%d", n, rows.Scanned())
	}
	if tbl.Len() != 10 {
		t.Error("peek changed the extent")
	}
	// Same query again: identical answer (no consumption).
	res2, _ := answer(tbl, "temp >= 5", query.Peek)
	if len(res2) != 5 {
		t.Errorf("second peek len=%d", len(res2))
	}
}

func TestConsumeQueryReducesExtent(t *testing.T) {
	db := openDB(t)
	tbl, _ := db.CreateTable("iot", TableConfig{Schema: iotSchema})
	for i := 0; i < 10; i++ {
		tbl.Insert(Row("s", float64(i)))
	}
	res, err := answer(tbl, "temp < 4", query.Consume)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("consumed %d, want 4", len(res))
	}
	// Law 2: extent = old extent minus answer set.
	if tbl.Len() != 6 {
		t.Errorf("Len = %d, want 6", tbl.Len())
	}
	// Re-running the same query returns nothing: answers are disjoint.
	res2, _ := answer(tbl, "temp < 4", query.Consume)
	if len(res2) != 0 {
		t.Errorf("second consume returned %d tuples", len(res2))
	}
	c := tbl.Counters()
	if c.Consumed != 4 || c.Queries != 2 {
		t.Errorf("counters = %+v", c)
	}
}

func TestQueryLimit(t *testing.T) {
	db := openDB(t)
	tbl, _ := db.CreateTable("iot", TableConfig{Schema: iotSchema})
	for i := 0; i < 10; i++ {
		tbl.Insert(Row("s", float64(i)))
	}
	res, err := answer(tbl, "", query.Consume, QueryOpts{Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Errorf("limited answer = %d", len(res))
	}
	if tbl.Len() != 7 {
		t.Errorf("extent = %d, want 7 (only answered tuples leave)", tbl.Len())
	}
}

func TestQueryErrors(t *testing.T) {
	db := openDB(t)
	tbl, _ := db.CreateTable("iot", TableConfig{Schema: iotSchema})
	tbl.Insert(Row("s", 1.0))
	if _, err := answer(tbl, "nosuch > 1", query.Peek); err == nil {
		t.Error("unknown column accepted")
	}
	if _, err := answer(tbl, "device > 1", query.Peek); err == nil {
		t.Error("type-mismatched query did not fail")
	}
	if tbl.Counters().Queries != 0 {
		t.Error("failed queries counted")
	}
}

func TestQueryDistillIntoContainer(t *testing.T) {
	db := openDB(t)
	tbl, _ := db.CreateTable("iot", TableConfig{Schema: iotSchema})
	for i := 0; i < 100; i++ {
		tbl.Insert(Row("s", float64(i)))
	}
	res, err := answer(tbl, "temp < 50", query.Consume, QueryOpts{Distill: "cold"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 50 {
		t.Fatalf("consumed %d", len(res))
	}
	c := tbl.Shelf().Get("cold")
	if c == nil {
		t.Fatal("container not created")
	}
	if c.Digest.Count() != 50 {
		t.Errorf("container absorbed %d", c.Digest.Count())
	}
	mean, err := c.Digest.Mean("temp")
	if err != nil {
		t.Fatal(err)
	}
	if mean != 24.5 {
		t.Errorf("container mean = %v", mean)
	}
	if tbl.Counters().DistilledQuery != 50 {
		t.Errorf("DistilledQuery = %d", tbl.Counters().DistilledQuery)
	}
}

func TestTickRotsAndDistills(t *testing.T) {
	db := openDB(t)
	tbl, err := db.CreateTable("iot", TableConfig{
		Schema:       iotSchema,
		Fungus:       fungus.Linear{Rate: 0.5},
		DistillOnRot: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		tbl.Insert(Row("s", float64(i)))
	}
	rep, err := db.Tick() // freshness 0.5
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalRot != 0 {
		t.Fatalf("rotted after one tick: %+v", rep)
	}
	rep, err = db.Tick() // freshness 0 -> all rot
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalRot != 8 || rep.TotalLive != 0 {
		t.Fatalf("tick 2 report: %+v", rep)
	}
	if tbl.Len() != 0 {
		t.Error("extent not empty after full rot")
	}
	rot := tbl.Shelf().Get(RotContainer)
	if rot == nil || rot.Digest.Count() != 8 {
		t.Fatalf("rot container = %+v", rot)
	}
	c := tbl.Counters()
	if c.Rotted != 8 || c.DistilledRot != 8 || c.CaptureRate() != 1 {
		t.Errorf("counters = %+v", c)
	}
}

func TestTickWithoutDistillLosesKnowledge(t *testing.T) {
	db := openDB(t)
	tbl, _ := db.CreateTable("iot", TableConfig{
		Schema: iotSchema,
		Fungus: fungus.Linear{Rate: 1.0},
	})
	for i := 0; i < 5; i++ {
		tbl.Insert(Row("s", float64(i)))
	}
	db.Tick()
	c := tbl.Counters()
	if c.Rotted != 5 || c.CaptureRate() != 0 {
		t.Errorf("counters = %+v", c)
	}
	if tbl.Shelf().Len() != 0 {
		t.Error("container created without DistillOnRot")
	}
}

func TestDBTickAdvancesClockAndInsertionTicks(t *testing.T) {
	db := openDB(t)
	tbl, _ := db.CreateTable("iot", TableConfig{Schema: iotSchema})
	tp0, _ := tbl.Insert(Row("s", 0.0))
	db.Tick()
	db.Tick()
	tp1, _ := tbl.Insert(Row("s", 1.0))
	if tp0.T != 0 || tp1.T != 2 {
		t.Errorf("ticks: %v, %v", tp0.T, tp1.T)
	}
	if db.Now() != 2 {
		t.Errorf("Now = %v", db.Now())
	}
}

func TestEGIEndToEndWithConsumeForget(t *testing.T) {
	db := openDB(t)
	egi := fungus.NewEGI(fungus.EGIConfig{SeedsPerTick: 2, DecayRate: 0.2})
	tbl, _ := db.CreateTable("iot", TableConfig{Schema: iotSchema, Fungus: egi})
	for i := 0; i < 500; i++ {
		tbl.Insert(Row("s", float64(i)))
	}
	for i := 0; i < 10; i++ {
		if _, err := db.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if egi.InfectedCount() == 0 {
		t.Error("EGI infected nothing")
	}
	// Consume everything; the infection set must drain (Forget) so the
	// fungus does not reference ghosts.
	if _, err := answer(tbl, "", query.Consume); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 0 {
		t.Errorf("Len = %d", tbl.Len())
	}
	if egi.InfectedCount() != 0 {
		t.Errorf("EGI still tracks %d consumed tuples", egi.InfectedCount())
	}
	if _, err := db.Tick(); err != nil {
		t.Fatal(err)
	}
}

func TestTouchOnReadKeepsDataAlive(t *testing.T) {
	db := openDB(t)
	inner := fungus.NewEGI(fungus.EGIConfig{SeedsPerTick: 1, DecayRate: 0.4})
	tbl, _ := db.CreateTable("iot", TableConfig{
		Schema:      iotSchema,
		Fungus:      fungus.AccessRefresh{Inner: inner},
		TouchOnRead: true,
	})
	for i := 0; i < 50; i++ {
		tbl.Insert(Row("s", float64(i)))
	}
	// Tend the data: peek everything after every tick.
	for i := 0; i < 30; i++ {
		db.Tick()
		if _, err := answer(tbl, "", query.Peek); err != nil {
			t.Fatal(err)
		}
	}
	if tbl.Len() != 50 {
		t.Errorf("tended extent shrank to %d", tbl.Len())
	}
	p := tbl.Profile()
	if p.Mean != 1 {
		t.Errorf("tended extent mean freshness = %v", p.Mean)
	}
}

// TestFailedBarrierPeekHasNoSideEffects: a barrier peek whose
// projection fails (at k = 3, on one of two shards) absorbs, touches and
// counts nothing — its side effects run only once the whole answer has
// been folded.
func TestFailedBarrierPeekHasNoSideEffects(t *testing.T) {
	const failing = "SELECT 100 / (k - 3) AS q FROM t"
	load := func(t *testing.T, cfg TableConfig) (*DB, *Table) {
		t.Helper()
		db := openDB(t)
		cfg.Schema, cfg.Shards = oracleSchema, 2
		tbl, err := db.CreateTable("t", cfg)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 10; k++ {
			if _, err := tbl.Insert(Row(k, float64(k), "x", true)); err != nil {
				t.Fatal(err)
			}
		}
		return db, tbl
	}
	t.Run("distill", func(t *testing.T) {
		_, tbl := load(t, TableConfig{})
		queries := tbl.Counters().Queries
		if _, err := tbl.SQL(failing, QueryOpts{Distill: "d"}); err == nil {
			t.Fatal("projection dividing by zero succeeded")
		}
		if got := tbl.Counters().Queries; got != queries {
			t.Errorf("failed query counted: Queries %d -> %d", queries, got)
		}
		if tbl.Shelf().Get("d") != nil {
			t.Error("failed query created and filled container d")
		}
		if _, err := tbl.SQL("SELECT k FROM t", QueryOpts{Distill: "d"}); err != nil {
			t.Fatal(err)
		}
		if c := tbl.Shelf().Get("d"); c == nil || c.Digest.Count() != 10 {
			t.Error("a succeeding distill did not absorb its 10 rows")
		}
	})
	t.Run("touch-on-read", func(t *testing.T) {
		db, tbl := load(t, TableConfig{Fungus: fungus.AccessRefresh{Inner: fungus.Linear{Rate: 0.1}}, TouchOnRead: true})
		for i := 0; i < 3; i++ {
			if _, err := db.Tick(); err != nil {
				t.Fatal(err)
			}
		}
		freshness := func() []float64 {
			var fs []float64
			for _, part := range oracleDump(tbl) {
				for i := range part {
					fs = append(fs, float64(part[i].F))
				}
			}
			return fs
		}
		before := freshness()
		queries := tbl.Counters().Queries
		if _, err := tbl.SQL(failing); err == nil {
			t.Fatal("projection dividing by zero succeeded")
		}
		if got := tbl.Counters().Queries; got != queries {
			t.Errorf("failed query counted: Queries %d -> %d", queries, got)
		}
		after := freshness()
		for i := range before {
			if before[i] == 1 || after[i] != before[i] {
				t.Fatalf("row %d: _f %v before the failed query, %v after (want decayed, unchanged)", i, before[i], after[i])
			}
		}
		if _, err := tbl.SQL("SELECT k FROM t"); err != nil {
			t.Fatal(err)
		}
		for i, f := range freshness() {
			if f != 1 {
				t.Fatalf("row %d: _f %v after a succeeding query, want 1", i, f)
			}
		}
	})
}

func TestContainerShelfDecaysWithTicks(t *testing.T) {
	db := openDB(t)
	tbl, _ := db.CreateTable("iot", TableConfig{
		Schema:            iotSchema,
		ContainerHalfLife: 3,
	})
	tbl.Insert(Row("s", 1.0))
	if _, err := answer(tbl, "", query.Consume, QueryOpts{Distill: "short-lived"}); err != nil {
		t.Fatal(err)
	}
	if tbl.Shelf().Len() != 1 {
		t.Fatal("container missing")
	}
	discarded := false
	for i := 0; i < 100 && !discarded; i++ {
		rep, err := tbl.Tick()
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range rep.ContainersDiscarded {
			if name == "short-lived" {
				discarded = true
			}
		}
	}
	if !discarded {
		t.Error("container never rotted off the shelf")
	}
}

func TestTickEveryPerTablePeriod(t *testing.T) {
	db := openDB(t)
	fast, _ := db.CreateTable("fast", TableConfig{
		Schema: iotSchema,
		Fungus: fungus.Linear{Rate: 0.1},
	})
	slow, _ := db.CreateTable("slow", TableConfig{
		Schema:    iotSchema,
		Fungus:    fungus.Linear{Rate: 0.1},
		TickEvery: 3, // the paper's per-relation clock period T
	})
	fast.Insert(Row("s", 1.0))
	slow.Insert(Row("s", 1.0))
	for i := 0; i < 6; i++ {
		if _, err := db.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	fp, sp := fast.Profile(), slow.Profile()
	if fp.Mean >= 0.45 || fp.Mean <= 0.35 { // 6 decay steps
		t.Errorf("fast mean = %v, want 0.4", fp.Mean)
	}
	if sp.Mean >= 0.85 || sp.Mean <= 0.75 { // 2 decay steps (ticks 3 and 6)
		t.Errorf("slow mean = %v, want 0.8", sp.Mean)
	}
}

func TestRowConversion(t *testing.T) {
	vals := Row(1, int64(2), 3.5, "x", true, tuple.Int(9))
	wantKinds := []tuple.Kind{tuple.KindInt, tuple.KindInt, tuple.KindFloat, tuple.KindString, tuple.KindBool, tuple.KindInt}
	for i, k := range wantKinds {
		if vals[i].Kind() != k {
			t.Errorf("Row[%d] kind = %v, want %v", i, vals[i].Kind(), k)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Row with unsupported type did not panic")
		}
	}()
	Row(struct{}{})
}

func TestClosedTableRejectsOps(t *testing.T) {
	db := openDB(t)
	tbl, _ := db.CreateTable("iot", TableConfig{Schema: iotSchema})
	tbl.Close()
	if _, err := tbl.Insert(Row("s", 1.0)); err == nil {
		t.Error("insert on closed table succeeded")
	}
	if _, err := answer(tbl, "", query.Peek); err == nil {
		t.Error("query on closed table succeeded")
	}
	if _, err := tbl.Tick(); err == nil {
		t.Error("tick on closed table succeeded")
	}
	if err := tbl.Close(); err != nil {
		t.Error("double close errored")
	}
}

func TestClosedDBRejectsCreate(t *testing.T) {
	db, _ := Open(DBConfig{})
	db.Close()
	if _, err := db.CreateTable("x", TableConfig{Schema: iotSchema}); err == nil {
		t.Error("create on closed DB succeeded")
	}
	if err := db.Close(); err != nil {
		t.Error("double close errored")
	}
}

func TestConcurrentInsertsAndQueries(t *testing.T) {
	db := openDB(t)
	tbl, _ := db.CreateTable("iot", TableConfig{
		Schema: iotSchema,
		Fungus: fungus.Linear{Rate: 0.001},
	})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := tbl.Insert(Row("s", float64(i))); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				if i%10 == 0 {
					if _, err := answer(tbl, "temp < 100", query.Peek); err != nil {
						t.Errorf("query: %v", err)
						return
					}
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			if _, err := db.Tick(); err != nil {
				t.Errorf("tick: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if tbl.Len() != 800 {
		t.Errorf("Len = %d, want 800 (rate too small to rot)", tbl.Len())
	}
}

func TestPersistentTableSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	db1, err := Open(DBConfig{Seed: 2, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db1.CreateTable("iot", TableConfig{
		Schema:  iotSchema,
		Fungus:  fungus.Linear{Rate: 0.1},
		Persist: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		tbl.Insert(Row("s", float64(i)))
	}
	db1.Tick()
	db1.Tick() // freshness now 0.8
	if _, err := answer(tbl, "temp < 5", query.Consume); err != nil {
		t.Fatal(err)
	}
	wantLen := tbl.Len()
	if err := db1.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen at the same logical time.
	db2, err := Open(DBConfig{Seed: 2, Dir: dir, Clock: clock.NewVirtual(2)})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tbl2, err := db2.CreateTable("iot", TableConfig{
		Schema:  iotSchema,
		Fungus:  fungus.Linear{Rate: 0.1},
		Persist: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tbl2.Len() != wantLen {
		t.Fatalf("recovered %d tuples, want %d", tbl2.Len(), wantLen)
	}
	auditZones(t, tbl2)
	// Freshness survived the checkpoint.
	res, err := answer(tbl2, "_f < 0.81 AND _f > 0.79", query.Peek)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != wantLen {
		t.Errorf("freshness lost on recovery: %d of %d tuples at 0.8", len(res), wantLen)
	}
	// The consumed tuples stayed consumed.
	res, _ = answer(tbl2, "temp < 5", query.Peek)
	if len(res) != 0 {
		t.Errorf("consumed tuples resurrected: %d", len(res))
	}
}

func TestPersistenceRequiresDir(t *testing.T) {
	db := openDB(t) // no Dir
	if _, err := db.CreateTable("p", TableConfig{Schema: iotSchema, Persist: true}); err == nil {
		t.Error("persistent table without Dir accepted")
	}
}

func TestCheckpointEveryTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(DBConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTable("iot", TableConfig{
		Schema:          iotSchema,
		Persist:         true,
		CheckpointEvery: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		tbl.Insert(Row("s", float64(i)))
	}
	if err := tbl.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}
	// Everything must still be recoverable.
	db2, _ := Open(DBConfig{Dir: dir})
	defer db2.Close()
	tbl2, err := db2.CreateTable("iot", TableConfig{Schema: iotSchema, Persist: true})
	if err != nil {
		t.Fatal(err)
	}
	if tbl2.Len() != 25 {
		t.Errorf("recovered %d, want 25", tbl2.Len())
	}
	auditZones(t, tbl2)
}

func TestCheckpointOnNonPersistentTable(t *testing.T) {
	db := openDB(t)
	tbl, _ := db.CreateTable("iot", TableConfig{Schema: iotSchema})
	if err := tbl.Checkpoint(); err == nil {
		t.Error("checkpoint on in-memory table succeeded")
	}
}

func TestTimeSeriesThroughTable(t *testing.T) {
	db := openDB(t)
	tbl, _ := db.CreateTable("iot", TableConfig{Schema: iotSchema})
	for i := 0; i < 40; i++ {
		tbl.Insert(Row("s", float64(i)))
	}
	buckets := tbl.TimeSeries(4)
	if len(buckets) != 4 {
		t.Fatalf("buckets = %d", len(buckets))
	}
	total := 0
	for _, b := range buckets {
		total += b.Live
	}
	if total != 40 {
		t.Errorf("bucket live total = %d", total)
	}
}

// TestCompileReuse: a statement prepared before the data arrives
// answers over the extent as it is at Execute, and preparing it again
// hands back the same compiled plan.
func TestCompileReuse(t *testing.T) {
	db := openDB(t)
	tbl, _ := db.CreateTable("iot", TableConfig{Schema: iotSchema})
	pq, err := tbl.Prepare("SELECT temp FROM iot WHERE temp > 5")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		tbl.Insert(Row("s", float64(i)))
	}
	rows, err := pq.Execute()
	if err != nil {
		t.Fatal(err)
	}
	_, got := drainRows(t, rows)
	if len(got) != 4 {
		t.Errorf("len = %d", len(got))
	}
	again, err := tbl.Prepare("SELECT temp FROM iot WHERE temp > 5")
	if err != nil {
		t.Fatal(err)
	}
	if again.plan != pq.plan || !strings.Contains(again.plan.Source(), "temp") {
		t.Error("re-prepare compiled a second plan")
	}
}
