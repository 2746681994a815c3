package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"fungusdb/internal/query"
	"fungusdb/internal/tuple"
)

// blockTable holds n rows (k = insertion order, v = k/2, name cycling
// over 7 strings, hot every third row) spread over the given shards.
func blockTable(t testing.TB, shards, n int) *Table { return blockTableNames(t, shards, n, 7) }

// blockTableNames is blockTable with a name column of the given
// cardinality.
func blockTableNames(t testing.TB, shards, n, names int) *Table {
	t.Helper()
	db, err := Open(DBConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	tbl, err := db.CreateTable("t", TableConfig{Schema: vecSchema, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]tuple.Value, 0, 1000)
	for k := 0; k < n; k++ {
		rows = append(rows, Row(k, float64(k)/2, fmt.Sprintf("name-%d", k%names), k%3 == 0))
		if len(rows) == cap(rows) || k == n-1 {
			if _, err := tbl.InsertBatch(rows); err != nil {
				t.Fatal(err)
			}
			rows = rows[:0]
		}
	}
	return tbl
}

// TestStreamProjectsFromColumns pins the values the block hand-off
// copies for every kind of target: attributes in any order and more
// than once, the three system columns, and computed expressions beside
// them — across block boundaries and shards.
func TestStreamProjectsFromColumns(t *testing.T) {
	const n = 1500 // several 256-row blocks per shard
	tbl := blockTable(t, 3, n)
	pq, err := tbl.Prepare("SELECT hot, name, _id, k, _t, _f, v AS v2, k + 1, name + \"!\" FROM t WHERE k >= 10")
	if err != nil {
		t.Fatal(err)
	}
	got, err := drainAny(pq, QueryOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n-10 {
		t.Fatalf("%d rows, want %d", len(got), n-10)
	}
	for i, row := range got {
		k := i + 10
		want := fmt.Sprintf("%v|%q|%d|%d|0|1|%v|%d|%q",
			k%3 == 0, fmt.Sprintf("name-%d", k%7), k, k, tuple.Float(float64(k)/2), k+1, fmt.Sprintf("name-%d!", k%7))
		if row != want {
			t.Fatalf("row %d = %s, want %s", i, row, want)
		}
	}
}

// TestStreamProjectionErrorPrecedence: a target that fails on one row
// fails the stream exactly when the merge reaches that row — after
// every earlier row was delivered, and not at all when LIMIT ends the
// stream first — although projection now runs in the producers, ahead
// of the merge.
func TestStreamProjectionErrorPrecedence(t *testing.T) {
	const n, bad = 2000, 700
	for _, shards := range []int{1, 3} {
		tbl := blockTable(t, shards, n)
		for _, tc := range []struct {
			limit    string
			wantRows int
			wantErr  bool
		}{
			{"", bad, true},
			{" LIMIT 700", bad, false},
			{" LIMIT 701", bad, true},
			{" LIMIT 5", 5, false},
		} {
			src := fmt.Sprintf("SELECT k, 100 / (k - %d) FROM t%s", bad, tc.limit)
			pq, err := tbl.Prepare(src)
			if err != nil {
				t.Fatal(err)
			}
			got, err := drainAny(pq, QueryOpts{})
			if len(got) != tc.wantRows {
				t.Errorf("shards=%d %q: %d rows before the end, want %d", shards, src, len(got), tc.wantRows)
			}
			if tc.wantErr != (err != nil) || (err != nil && !strings.Contains(err.Error(), "division by zero")) {
				t.Errorf("shards=%d %q: err = %v, want error %v", shards, src, err, tc.wantErr)
			}
		}
	}
}

// TestStreamRowsStayValid: callers keep Values() beyond the next Next
// (Table.SQL, and RowTuple's Attrs alias the row); hand-off blocks are
// never recycled, so what they kept must not change under them.
func TestStreamRowsStayValid(t *testing.T) {
	const n = 1200
	tbl := blockTable(t, 2, n)
	g, err := tbl.SQL("SELECT k, name FROM t")
	if err != nil {
		t.Fatal(err)
	}
	res, err := answer(tbl, "k >= 0", query.Peek)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Rows) != n || len(res) != n {
		t.Fatalf("%d projected rows, %d tuples, want %d", len(g.Rows), len(res), n)
	}
	for k := 0; k < n; k++ {
		name := fmt.Sprintf("name-%d", k%7)
		if row := g.Rows[k]; row[0].AsInt() != int64(k) || row[1].AsString() != name {
			t.Fatalf("projected row %d = %v", k, row)
		}
		tp := res[k]
		if tp.ID != tuple.ID(k) || tp.F != tuple.Full || len(tp.Attrs) != 4 ||
			tp.Attrs[0].AsInt() != int64(k) || tp.Attrs[2].AsString() != name || tp.Attrs[3].AsBool() != (k%3 == 0) {
			t.Fatalf("tuple %d = %v", k, tp)
		}
	}
	// A caller appending to a row it was handed must not reach into the
	// next row of the block.
	pq, err := tbl.Prepare("SELECT k FROM t")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := pq.Execute()
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	for k := 0; rows.Next(); k++ {
		if got := rows.Values()[0].AsInt(); got != int64(k) {
			t.Fatalf("row %d = %d after an append to the row before", k, got)
		}
		_ = append(rows.Values(), tuple.Int(-1))
	}
}

// TestStreamAllocsPerBlock is the allocation guard of the block
// hand-off: draining a stream allocates per 256-row block, not per row,
// whether the plan projects some columns or every field of the tuple.
func TestStreamAllocsPerBlock(t *testing.T) {
	const n, shards = 20_000, 4
	tbl := blockTable(t, shards, n)
	proj, err := tbl.Prepare("SELECT name, v, _id FROM t WHERE k >= 0")
	if err != nil {
		t.Fatal(err)
	}
	star, err := tbl.Prepare("SELECT * FROM t")
	if err != nil {
		t.Fatal(err)
	}
	tuples, err := tbl.Prepare(SelectTuples("t", false, ""))
	if err != nil {
		t.Fatal(err)
	}
	// Three allocations per block (the block, its IDs, its values); a
	// partial last block per shard; the rest (channels, goroutines,
	// matchers, the Rows) does not depend on the row count.
	const perBlock, fixed = 3, 150
	blocks := (n+query.BlockRows-1)/query.BlockRows + shards
	for name, pq := range map[string]*PreparedQuery{"projected": proj, "star": star, "tuples": tuples} {
		got := 0
		allocs := testing.AllocsPerRun(5, func() {
			rows, err := pq.Execute()
			if err != nil {
				t.Fatal(err)
			}
			for got = 0; rows.Next(); got++ {
			}
			if err := rows.Close(); err != nil {
				t.Fatal(err)
			}
		})
		if got != n {
			t.Fatalf("%s: %d rows, want %d", name, got, n)
		}
		if limit := float64(perBlock*blocks + fixed); allocs > limit {
			t.Errorf("%s: %.0f allocations for %d rows in %d blocks, want <= %.0f", name, allocs, n, blocks, limit)
		} else {
			t.Logf("%s: %.0f allocations for %d rows in %d blocks", name, allocs, n, blocks)
		}
	}
}

// TestAnalyticAllocsLateMaterialised is the allocation guard of the two
// analytic routes: an ORDER BY ... LIMIT k peek and a GROUP BY peek over
// n matching rows allocate per scan batch, per group and per retained
// row — never per matching row — whether targets are bare columns or a
// scalar aggregate rides along.
func TestAnalyticAllocsLateMaterialised(t *testing.T) {
	const n, shards, k, groups = 20_000, 4, 50, 7
	tbl := blockTable(t, shards, n)
	// Per shard: the heap keeps k rows (one value slice each); the
	// aggregator makes a bucket per group (key values, cells, index node
	// and edge) and, for a STRING group key, one code table per segment.
	// The rest (fan-out, matchers, scratch, the Rows) is fixed.
	segments := n/4096 + shards
	const perGroup, fixed = 12, 150
	for name, tc := range map[string]struct {
		src   string
		rows  int
		limit int
	}{
		"topk":   {"SELECT name, v FROM t WHERE k >= 0 ORDER BY v DESC LIMIT 50", k, shards*k + fixed},
		"group":  {"SELECT name, COUNT(*) AS n, AVG(v) AS a, MAX(k) AS hi FROM t WHERE k >= 0 GROUP BY name", groups, shards*groups*perGroup + segments + fixed},
		"scalar": {"SELECT COUNT(*) AS n, SUM(v) AS s, MIN(v) AS lo FROM t WHERE k >= 0", 1, fixed},
	} {
		pq, err := tbl.Prepare(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		allocs := testing.AllocsPerRun(5, func() {
			rows, err := pq.Execute()
			if err != nil {
				t.Fatal(err)
			}
			for got = 0; rows.Next(); got++ {
			}
			if err := rows.Close(); err != nil {
				t.Fatal(err)
			}
		})
		if got != tc.rows {
			t.Fatalf("%s: %d rows, want %d", name, got, tc.rows)
		}
		if allocs > float64(tc.limit) {
			t.Errorf("%s: %.0f allocations over %d matching rows, want <= %d", name, allocs, n, tc.limit)
		} else {
			t.Logf("%s: %.0f allocations over %d matching rows (limit %d)", name, allocs, n, tc.limit)
		}
	}
}

// TestGroupByHighCardinalityMemory bounds what a GROUP BY over a
// near-unique INT column followed by a near-unique STRING column
// allocates: per group, never per (group, dictionary entry) — a code
// table of a segment's whole dictionary for every node of the group
// index would cost about a thousand times this bound.
func TestGroupByHighCardinalityMemory(t *testing.T) {
	const n, perGroupAllocs, perGroupBytes = 20_000, 12, 4 << 10
	tbl := blockTableNames(t, 1, n, n)
	for _, keys := range []string{"k, name", "name, k"} {
		pq, err := tbl.Prepare("SELECT " + keys + ", COUNT(*) AS n, MAX(v) AS hi FROM t GROUP BY " + keys)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rows, err := pq.Execute()
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		for ; rows.Next(); got++ {
		}
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got != n {
			t.Fatalf("GROUP BY %s: %d groups, want %d", keys, got, n)
		}
		allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		if allocs > n*perGroupAllocs || bytes > n*perGroupBytes {
			t.Errorf("GROUP BY %s: %d allocations, %d bytes for %d groups, want <= %d and <= %d", keys, allocs, bytes, n, n*perGroupAllocs, n*perGroupBytes)
		} else {
			t.Logf("GROUP BY %s: %d allocations, %d bytes for %d groups", keys, allocs, bytes, n)
		}
	}
}
