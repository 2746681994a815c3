package core

import (
	"fmt"
	"testing"

	"fungusdb/internal/fungus"
)

func loadClicks(t *testing.T) *Table {
	t.Helper()
	db := openDB(t)
	tbl, err := db.CreateTable("clicks", TableConfig{Schema: iotSchema})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if _, err := tbl.Insert(Row(fmt.Sprintf("sensor-%d", i%3), float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestSQLSelectWhereOrderLimit(t *testing.T) {
	tbl := loadClicks(t)
	g, err := tbl.SQL("SELECT device, temp FROM clicks WHERE temp >= 50 ORDER BY temp DESC LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Rows) != 3 {
		t.Fatalf("rows = %d", len(g.Rows))
	}
	if g.Rows[0][1].AsFloat() != 59 || g.Rows[2][1].AsFloat() != 57 {
		t.Errorf("rows = %v", g.Rows)
	}
	if tbl.Len() != 60 {
		t.Error("plain SELECT consumed")
	}
}

func TestSQLGroupBy(t *testing.T) {
	tbl := loadClicks(t)
	g, err := tbl.SQL("SELECT device, COUNT(*) AS n, AVG(temp) AS avg FROM clicks GROUP BY device")
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Rows) != 3 {
		t.Fatalf("groups = %d", len(g.Rows))
	}
	for _, row := range g.Rows {
		if row[1].AsInt() != 20 {
			t.Errorf("group %v count = %v", row[0], row[1])
		}
	}
}

func TestSQLConsumeRemovesMatches(t *testing.T) {
	tbl := loadClicks(t)
	g, err := tbl.SQL("SELECT CONSUME device FROM clicks WHERE temp < 30 LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	// LIMIT truncates the grid, not the consumption: the SQL LIMIT is
	// applied by the finishing stages after the cut, and QueryOpts.Limit
	// (which bounds the cut) was not set, so all 30 matches left.
	if len(g.Rows) != 5 {
		t.Errorf("grid rows = %d", len(g.Rows))
	}
	if tbl.Len() != 30 {
		t.Errorf("extent = %d, want 30 (all matches consumed)", tbl.Len())
	}
	if tbl.Counters().Consumed != 30 {
		t.Errorf("consumed = %d", tbl.Counters().Consumed)
	}
}

func TestSQLConsumeWithDistill(t *testing.T) {
	tbl := loadClicks(t)
	if _, err := tbl.SQL("SELECT CONSUME * FROM clicks WHERE temp >= 40", QueryOpts{Distill: "hot"}); err != nil {
		t.Fatal(err)
	}
	c := tbl.Shelf().Get("hot")
	if c == nil || c.Digest.Count() != 20 {
		t.Fatalf("container = %+v", c)
	}
}

func TestSQLWrongTable(t *testing.T) {
	tbl := loadClicks(t)
	if _, err := tbl.SQL("SELECT * FROM other"); err == nil {
		t.Error("wrong table accepted")
	}
}

func TestSQLParseAndExecErrors(t *testing.T) {
	tbl := loadClicks(t)
	for _, src := range []string{
		"DELETE FROM clicks",
		"SELECT nosuch FROM clicks",
		"SELECT * FROM clicks WHERE nosuch = 1",
		"SELECT device FROM clicks GROUP BY nosuch",
	} {
		if _, err := tbl.SQL(src); err == nil {
			t.Errorf("%q accepted", src)
		}
	}
}

func TestSQLSystemColumns(t *testing.T) {
	db := openDB(t)
	tbl, _ := db.CreateTable("clicks", TableConfig{
		Schema: iotSchema,
		Fungus: fungus.Linear{Rate: 0.1},
	})
	tbl.Insert(Row("s", 1.0))
	db.Tick()
	db.Tick()
	tbl.Insert(Row("s", 2.0))
	g, err := tbl.SQL("SELECT device, _f, _t FROM clicks ORDER BY _t")
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Rows) != 2 {
		t.Fatalf("rows = %d", len(g.Rows))
	}
	if g.Rows[0][1].AsFloat() != 0.8 || g.Rows[1][1].AsFloat() != 1.0 {
		t.Errorf("freshness column = %v / %v", g.Rows[0][1], g.Rows[1][1])
	}
	if g.Rows[0][2].AsInt() != 0 || g.Rows[1][2].AsInt() != 2 {
		t.Errorf("tick column = %v / %v", g.Rows[0][2], g.Rows[1][2])
	}
}

func TestSQLFreshnessWeightedAnalytics(t *testing.T) {
	// The headline combination: aggregate freshness per group — the
	// kind of health dashboard the paper imagines.
	db := openDB(t)
	tbl, _ := db.CreateTable("clicks", TableConfig{
		Schema: iotSchema,
		Fungus: fungus.Linear{Rate: 0.05},
	})
	for i := 0; i < 30; i++ {
		tbl.Insert(Row(fmt.Sprintf("sensor-%d", i%3), float64(i)))
		if i%10 == 9 {
			db.Tick()
		}
	}
	g, err := tbl.SQL("SELECT device, COUNT(*) AS n, AVG(_f) AS avg_fresh FROM clicks GROUP BY device ORDER BY device")
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Rows) != 3 {
		t.Fatalf("groups = %d", len(g.Rows))
	}
	for _, row := range g.Rows {
		f := row[2].AsFloat()
		if f <= 0.8 || f > 1.0 {
			t.Errorf("avg freshness %v out of expected band", f)
		}
	}
}
