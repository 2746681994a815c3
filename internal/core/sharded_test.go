package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"fungusdb/internal/catalog"
	"fungusdb/internal/clock"
	"fungusdb/internal/fungus"
	"fungusdb/internal/query"
	"fungusdb/internal/storage"
	"fungusdb/internal/tuple"
	"fungusdb/internal/wal"
	"fungusdb/internal/workload"
)

func shardedTable(t *testing.T, shards int, f fungus.Fungus) (*DB, *Table) {
	t.Helper()
	db, err := Open(DBConfig{Seed: 42, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	schema := tuple.MustSchema(
		tuple.Column{Name: "device", Kind: tuple.KindString},
		tuple.Column{Name: "temp", Kind: tuple.KindFloat},
	)
	tbl, err := db.CreateTable("t", TableConfig{Schema: schema, Fungus: f, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return db, tbl
}

// TestShardedConcurrentHammer drives one sharded table from parallel
// Insert, Select (peek), Consume and Tick goroutines (run with -race)
// and then checks the engine's conservation invariants: every inserted
// tuple is exactly one of live, rotted or consumed; the merged extent
// scan yields strictly increasing, duplicate-free IDs; and freshness
// stays within [0, 1].
func TestShardedConcurrentHammer(t *testing.T) {
	egi := fungus.NewEGI(fungus.EGIConfig{SeedsPerTick: 4, DecayRate: 0.2, AgeBias: 2})
	db, tbl := shardedTable(t, 4, egi)

	const (
		inserters  = 3
		perWorker  = 400
		ticks      = 60
		peeks      = 60
		consumes   = 40
		consumeCap = 5
	)
	var wg sync.WaitGroup
	for w := 0; w < inserters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := tbl.Insert(Row(fmt.Sprintf("dev-%d", w), float64(i%100))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < ticks; i++ {
			if _, err := db.Tick(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < peeks; i++ {
			if _, err := answer(tbl, "temp >= 50", query.Peek); err != nil {
				t.Error(err)
				return
			}
			if _, err := tbl.SQL("SELECT device, COUNT(*) AS n FROM t GROUP BY device"); err != nil {
				t.Error(err)
				return
			}
			// The collect route: its producers run beside the merge,
			// under every shard's read lock.
			if _, err := tbl.SQL("SELECT device, temp FROM t WHERE temp >= 50 ORDER BY temp", QueryOpts{Distill: "hot"}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < consumes; i++ {
			if _, err := answer(tbl, "temp < 25", query.Consume, QueryOpts{Limit: consumeCap}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	c := tbl.Counters()
	live := uint64(tbl.Len())
	if c.Inserted != uint64(inserters*perWorker) {
		t.Fatalf("inserted counter %d, want %d", c.Inserted, inserters*perWorker)
	}
	if live+c.Rotted+c.Consumed != c.Inserted {
		t.Fatalf("conservation broken: live %d + rotted %d + consumed %d != inserted %d",
			live, c.Rotted, c.Consumed, c.Inserted)
	}
	res, err := answer(tbl, "", query.Peek)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(res)) != live {
		t.Fatalf("full scan %d != Len %d", len(res), live)
	}
	for i := range res {
		tp := &res[i]
		if i > 0 && tp.ID <= res[i-1].ID {
			t.Fatalf("scan not strictly increasing at %d: %d after %d", i, tp.ID, res[i-1].ID)
		}
		if tp.F < 0 || tp.F > tuple.Full {
			t.Fatalf("freshness out of bounds: %v", tp.F)
		}
	}
}

// scriptedRun drives a deterministic mixed workload (ingest, decay,
// consume, distill) and serialises everything observable — counters,
// live extent, report stream — into one string.
func scriptedRun(t *testing.T, seed int64, shards, workers int) string {
	t.Helper()
	db, err := Open(DBConfig{Seed: seed, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	gen := workload.NewIoT(50, seed)
	egi := fungus.NewEGI(fungus.EGIConfig{SeedsPerTick: 3, DecayRate: 0.15, AgeBias: 2})
	tbl, err := db.CreateTable("iot", TableConfig{
		Schema:       gen.Schema(),
		Fungus:       egi,
		Shards:       shards,
		DistillOnRot: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for tick := 0; tick < 40; tick++ {
		for i := 0; i < 60; i++ {
			if _, err := tbl.Insert(gen.Next()); err != nil {
				t.Fatal(err)
			}
		}
		if tick%7 == 3 {
			res, err := answer(tbl, "temp < 15", query.Consume, QueryOpts{Limit: 40, Distill: "cold"})
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "consume@%d=%d\n", tick, len(res))
		}
		rep, err := db.Tick()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "tick@%d rot=%d live=%d\n", tick, rep.TotalRot, rep.TotalLive)
	}
	c := tbl.Counters()
	fmt.Fprintf(&b, "counters %s\n", c)
	// Infected is fungus state no statement can select, so the live
	// extent is read in-package.
	for _, tp := range liveByID(tbl) {
		fmt.Fprintf(&b, "%d %d %.6f %v\n", tp.ID, tp.T, float64(tp.F), tp.Infected)
	}
	return b.String()
}

// TestShardedDeterminism: a fixed seed reproduces a sharded run exactly
// — same rot, same extent, same counters — across repeated runs and
// across worker-pool sizes (parallelism must never leak into results).
func TestShardedDeterminism(t *testing.T) {
	a := scriptedRun(t, 7, 4, 4)
	bRun := scriptedRun(t, 7, 4, 4)
	if a != bRun {
		t.Fatal("two identical sharded runs diverged")
	}
	c := scriptedRun(t, 7, 4, 1)
	if a != c {
		t.Fatal("worker count changed the result of a sharded run")
	}
	if d := scriptedRun(t, 8, 4, 4); a == d {
		t.Fatal("different seeds produced identical runs")
	}
}

// TestShardedAggregateMatchesUnsharded: the distributed aggregate path
// (per-shard partial aggregation, merged in shard order) must agree
// with the single-extent path on identical data.
func TestShardedAggregateMatchesUnsharded(t *testing.T) {
	render := func(shards int) string {
		_, tbl := shardedTable(t, shards, nil)
		for i := 0; i < 500; i++ {
			if _, err := tbl.Insert(Row(fmt.Sprintf("dev-%d", i%7), float64(i%40))); err != nil {
				t.Fatal(err)
			}
		}
		g, err := tbl.SQL("SELECT device, COUNT(*) AS n, AVG(temp) AS avg, MIN(temp) AS lo, MAX(temp) AS hi FROM t WHERE temp < 35 GROUP BY device ORDER BY device")
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		g.Render(&b)
		return b.String()
	}
	if one, four := render(1), render(4); one != four {
		t.Fatalf("aggregate grids diverge:\nshards=1:\n%s\nshards=4:\n%s", one, four)
	}
}

// TestShardedPersistenceAcrossShardCounts: a persistent sharded table
// recovers its extent even when reopened with a different shard count —
// IDs route tuples to owners, not file layout.
func TestShardedPersistenceAcrossShardCounts(t *testing.T) {
	dir := t.TempDir()
	schema := tuple.MustSchema(tuple.Column{Name: "v", Kind: tuple.KindInt})

	open := func(shards int) (*DB, *Table) {
		db, err := Open(DBConfig{Seed: 1, Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := db.CreateTable("p", TableConfig{Schema: schema, Shards: shards, Persist: true})
		if err != nil {
			t.Fatal(err)
		}
		return db, tbl
	}

	db, tbl := open(4)
	for i := 0; i < 100; i++ {
		if _, err := tbl.Insert(Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := answer(tbl, "v < 20", query.Consume); err != nil {
		t.Fatal(err)
	}
	wantLive := tbl.Len()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{4, 1, 3} {
		db, tbl = open(shards)
		if tbl.Len() != wantLive {
			t.Fatalf("shards=%d: recovered %d tuples, want %d", shards, tbl.Len(), wantLive)
		}
		auditZones(t, tbl)
		res, err := answer(tbl, "", query.Peek)
		if err != nil {
			t.Fatal(err)
		}
		for i := range res {
			if res[i].Attrs[0].AsInt() < 20 {
				t.Fatalf("shards=%d: consumed tuple came back: %v", shards, res[i])
			}
			if i > 0 && res[i].ID <= res[i-1].ID {
				t.Fatalf("shards=%d: recovered scan out of order", shards)
			}
		}
		// New inserts must not collide with recovered IDs.
		tp, err := tbl.Insert(Row(999))
		if err != nil {
			t.Fatal(err)
		}
		if tp.ID < 100 {
			t.Fatalf("shards=%d: new insert reused ID %d", shards, tp.ID)
		}
		wantLive++ // the probe tuple persists into the next reopen
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardedBatchInsert: InsertBatch assigns the same IDs a
// row-at-a-time loop would and routes rows to their shards.
func TestShardedBatchInsert(t *testing.T) {
	_, tbl := shardedTable(t, 3, nil)
	rows := make([][]tuple.Value, 10)
	for i := range rows {
		rows[i] = Row("d", float64(i))
	}
	tps, err := tbl.InsertBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	for i, tp := range tps {
		if tp.ID != tuple.ID(i) {
			t.Fatalf("row %d got ID %d", i, tp.ID)
		}
	}
	// Interleave with single inserts: the rotation continues seamlessly.
	tp, err := tbl.Insert(Row("d", 0.0))
	if err != nil {
		t.Fatal(err)
	}
	if tp.ID != 10 {
		t.Fatalf("post-batch insert got ID %d, want 10", tp.ID)
	}
	if tbl.Len() != 11 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	if got := tbl.Shards(); got != 3 {
		t.Fatalf("Shards() = %d", got)
	}
}

// TestSingleLogDirRefusedOnOpen: a table directory in the retired
// one-log-per-table layout (snapshot.db + wal.log, no manifest) must
// fail Open with an error naming the layout — never open as a fresh,
// empty table — and must be left exactly as it was.
func TestSingleLogDirRefusedOnOpen(t *testing.T) {
	dir := t.TempDir()
	schema := tuple.MustSchema(tuple.Column{Name: "v", Kind: tuple.KindInt})
	tdir := filepath.Join(dir, "p")
	if err := os.MkdirAll(tdir, 0o755); err != nil {
		t.Fatal(err)
	}
	st := storage.New(schema)
	log, err := wal.Open(filepath.Join(tdir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		tp, err := st.Insert(1, Row(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := log.AppendInsert(tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if err := wal.WriteSnapshot(filepath.Join(tdir, "snapshot.db"), st); err != nil {
		t.Fatal(err)
	}
	cat := &catalog.Catalog{}
	cat.Put(catalog.TableSpec{Name: "p", Schema: "v INT", Shards: 4})
	if err := cat.Save(dir); err != nil {
		t.Fatal(err)
	}
	before := map[string][]byte{}
	for _, name := range []string{"snapshot.db", "wal.log"} {
		data, err := os.ReadFile(filepath.Join(tdir, name))
		if err != nil {
			t.Fatal(err)
		}
		before[name] = data
	}

	db, err := Open(DBConfig{Seed: 1, Dir: dir})
	if err == nil {
		db.Close()
		t.Fatal("Open recovered a single-log table directory")
	}
	if !errors.Is(err, wal.ErrSingleLogLayout) || !strings.Contains(err.Error(), "single-log layout") {
		t.Fatalf("Open error does not name the layout: %v", err)
	}
	for name, want := range before {
		got, err := os.ReadFile(filepath.Join(tdir, name))
		if err != nil {
			t.Fatalf("%s after refused open: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s changed by the refused open", name)
		}
	}
	if _, err := os.Stat(filepath.Join(tdir, wal.ManifestFile)); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("refused open wrote a manifest (stat: %v)", err)
	}
}

// TestShardedTargetedTickMatchesRowModel ticks a catalog-built targeted
// table at 4 shards on parallel workers, inserting between ticks, and
// holds every row's freshness and every rot to a row-at-a-time model:
// the WHERE clause decides per tuple, on its state before the tick,
// whether Linear decays it. The clause mixes an INT comparison, a STRING
// LIKE and the insertion tick, so each shard's own batch matcher
// translates its own dictionaries.
func TestShardedTargetedTickMatchesRowModel(t *testing.T) {
	const rate = 0.25
	db, err := Open(DBConfig{Dir: t.TempDir(), Seed: 3, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.CreateTableFromSpec(catalog.TableSpec{
		Name:        "logs",
		Schema:      "host STRING, sev INT",
		Shards:      4,
		SegmentSize: 64,
		Fungus: &catalog.FungusSpec{
			Kind:  "targeted",
			Where: "(sev > 2 AND host LIKE 'web-%') OR _t < 3",
			Inner: &catalog.FungusSpec{Kind: "linear", Rate: rate},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	type modelRow struct {
		at   clock.Tick
		host string
		sev  int64
		f    tuple.Freshness
	}
	model := map[tuple.ID]*modelRow{}
	hosts := []string{"web-1", "db-1", "web-2", "webby", "cache"}
	for tick := 0; tick < 12; tick++ {
		for i := 0; i < 150; i++ {
			host, sev := hosts[(tick+i)%len(hosts)], int64((i*7+tick)%6)
			tp, err := tbl.Insert(Row(host, sev))
			if err != nil {
				t.Fatal(err)
			}
			model[tp.ID] = &modelRow{at: tp.T, host: host, sev: sev, f: tuple.Full}
		}
		rep, err := db.Tick()
		if err != nil {
			t.Fatal(err)
		}
		wantRot := 0
		for id, r := range model {
			if !(r.sev > 2 && strings.HasPrefix(r.host, "web-") || r.at < 3) {
				continue
			}
			if r.f = (r.f - rate).Clamp(); r.f.Rotten() {
				delete(model, id)
				wantRot++
			}
		}
		if rep.TotalRot != wantRot {
			t.Fatalf("tick %d: %d rotted, model %d", tick, rep.TotalRot, wantRot)
		}
		live := liveByID(tbl)
		for _, tp := range live {
			r, ok := model[tp.ID]
			switch {
			case !ok:
				t.Errorf("tick %d: tuple %d live, model rotted it", tick, tp.ID)
			case tp.F != r.f:
				t.Errorf("tick %d: tuple %d (%s, %d, t=%d) freshness %v, model %v", tick, tp.ID, r.host, r.sev, r.at, tp.F, r.f)
			}
		}
		if len(live) != len(model) {
			t.Fatalf("tick %d: %d live, model %d", tick, len(live), len(model))
		}
		if t.Failed() {
			t.FailNow()
		}
	}
}
