package core

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
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

// TestStreamRowsStayValid: a streamed row is valid only until the next
// Next, because its block goes back to the pool and a later stream
// refills it. Callers that keep rows copy them — Table.SQL's grid and
// the answer helper (RowTuple's Attrs alias the row) — so what they
// kept must not change when later streams reuse the blocks.
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
	// Streams of other values over the blocks the two above released.
	for i := 0; i < 3; i++ {
		if _, err := drainAny(mustPrepare(t, tbl, "SELECT hot, v, -k, name + \"?\" FROM t"), QueryOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	if len(g.Rows) != n || len(res) != n {
		t.Fatalf("%d projected rows, %d tuples, want %d", len(g.Rows), len(res), n)
	}
	for k := 0; k < n; k++ {
		name := fmt.Sprintf("name-%d", k%7)
		if row := g.Rows[k]; len(row) != 2 || cap(row) != 2 || row[0].AsInt() != int64(k) || row[1].AsString() != name {
			t.Fatalf("projected row %d = %v (cap %d)", k, row, cap(row))
		}
		tp := res[k]
		if tp.ID != tuple.ID(k) || tp.F != tuple.Full || len(tp.Attrs) != 4 ||
			tp.Attrs[0].AsInt() != int64(k) || tp.Attrs[2].AsString() != name || tp.Attrs[3].AsBool() != (k%3 == 0) {
			t.Fatalf("tuple %d = %v", k, tp)
		}
	}
	// A caller appending to a row it was handed must not reach into the
	// next row of the block.
	rows, err := mustPrepare(t, tbl, "SELECT k FROM t").Execute()
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

func mustPrepare(t testing.TB, tbl *Table, src string) *PreparedQuery {
	t.Helper()
	pq, err := tbl.Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	return pq
}

// TestStreamBlockRecycling runs several streams at once over recycled
// hand-off blocks (4 shards, over 20 blocks each) and checks every row
// against its reference twice: when Next hands it out, and again just
// before the next Next, after yielding to the producers — which by then
// may have refilled any block the merge released. A block released
// while it still holds the current row fails one of the checks, or the
// race detector. The statements cover a full drain, LIMIT's early stop,
// Close mid-stream (the current row must survive Close) and a block
// poisoned by a projection error.
func TestStreamBlockRecycling(t *testing.T) {
	const shards, n, bad = 4, 24_000, 17_000
	tbl := blockTable(t, shards, n)
	ref := make([][]tuple.Value, n)
	for k := range ref {
		ref[k] = []tuple.Value{tuple.Int(int64(k)), tuple.Float(float64(k) / 2), tuple.String_(fmt.Sprintf("name-%d", k%7)), tuple.Bool(k%3 == 0)}
	}
	cases := []struct {
		name, src string
		want      func(i int) []tuple.Value // the i-th row
		rows      int                       // rows the consumer reads
		closeAt   bool                      // Close after rows rows instead of draining
		err       string                    // the error the stream ends in
	}{
		{"all", "SELECT k, v, name, hot FROM t", func(i int) []tuple.Value { return ref[i] }, n, false, ""},
		{"limit", "SELECT k, v, name, hot FROM t WHERE k % 3 = 1 LIMIT 5000", func(i int) []tuple.Value { return ref[3*i+1] }, 5000, false, ""},
		{"close", "SELECT k, v, name, hot FROM t", func(i int) []tuple.Value { return ref[i] }, 9001, true, ""},
		{"poisoned", fmt.Sprintf("SELECT k, v, name, hot, 100 / (k - %d) FROM t", bad), func(i int) []tuple.Value {
			return append(ref[i][:4:4], tuple.Int(int64(100/(i-bad))))
		}, bad, false, "division by zero"},
	}
	const streams, rounds = 6, 4
	var wg sync.WaitGroup
	for g := 0; g < streams; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				c := cases[(g+r)%len(cases)]
				pq, err := tbl.Prepare(c.src)
				if err != nil {
					t.Error(err)
					return
				}
				rows, err := pq.Execute()
				if err != nil {
					t.Error(err)
					return
				}
				same := func(i int, when string) bool {
					got, want := rows.Values(), c.want(i)
					ok := len(got) == len(want)
					for j := 0; ok && j < len(want); j++ {
						ok = got[j].Equal(want[j])
					}
					if !ok {
						t.Errorf("%s: row %d %s = %v, want %v", c.name, i, when, got, want)
					}
					return ok
				}
				i := 0
				for ; rows.Next(); i++ {
					if !same(i, "when handed out") {
						break
					}
					runtime.Gosched()
					if !same(i, "before the next Next") {
						break
					}
					if c.closeAt && i+1 == c.rows {
						if err := rows.Close(); err != nil {
							t.Errorf("%s: Close: %v", c.name, err)
						}
						runtime.Gosched()
						same(i, "after Close")
						i++
						break
					}
				}
				err = rows.Close()
				if i != c.rows || (err == nil) != (c.err == "") || (err != nil && !strings.Contains(err.Error(), c.err)) {
					t.Errorf("%s: %d rows, err %v; want %d rows, err %q", c.name, i, err, c.rows, c.err)
				}
				if rows.Next() {
					t.Errorf("%s: Next after Close", c.name)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestStreamAllocsPerBlock is the allocation guard of the block
// hand-off. A drain allocates per 256-row block, not per row, whether
// the plan projects some columns or every field of the tuple; once a
// drain has returned its blocks to the pool, the next one allocates
// none, so its allocations do not grow with the row count.
func TestStreamAllocsPerBlock(t *testing.T) {
	const n, small, shards = 20_000, 2_000, 4
	tbl, tblSmall := blockTable(t, shards, n), blockTable(t, shards, small)
	// A fresh block is one allocation plus one slab per column kind,
	// and the producers take back the blocks the merge releases while
	// the drain runs, so three allocations per block bound a cold drain;
	// a partial last block per shard; the rest (channels, goroutines,
	// matchers, the Rows) does not depend on the row count.
	const perBlock, fixed = 3, 150
	blocks := (n+query.BlockRows-1)/query.BlockRows + shards
	for _, src := range []string{"SELECT name, v, _id FROM t WHERE k >= 0", "SELECT * FROM t", SelectTuples("t", false, "")} {
		drain := func(tbl *Table, want int) func() {
			pq := mustPrepare(t, tbl, src)
			return func() {
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
				if got != want {
					t.Fatalf("%s: %d rows, want %d", src, got, want)
				}
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		drain(tbl, n)()
		runtime.ReadMemStats(&after)
		first := after.Mallocs - before.Mallocs
		if limit := uint64(perBlock*blocks + fixed); first > limit {
			t.Errorf("%s: %d allocations for %d rows in %d blocks, want <= %d", src, first, n, blocks, limit)
		}
		if raceEnabled {
			continue // the race detector makes sync.Pool drop some of what it is given
		}
		// AllocsPerRun drains once before it counts.
		steady := testing.AllocsPerRun(5, drain(tbl, n))
		steadySmall := testing.AllocsPerRun(5, drain(tblSmall, small))
		if steady > steadySmall+perBlock*shards {
			t.Errorf("%s: warm drains allocate %.0f times for %d rows, %.0f for %d; want no growth with the row count", src, steady, n, steadySmall, small)
		}
		t.Logf("%s: first drain %d allocations, then %.0f for %d rows and %.0f for %d", src, first, steady, n, steadySmall, small)
	}
}

// TestAnalyticAllocsLateMaterialised is the allocation guard of the two
// analytic routes: an ORDER BY ... LIMIT k peek and a GROUP BY peek over
// n matching rows allocate per scan batch, per group and per retained
// row — never per matching row — whether targets are bare columns or a
// scalar aggregate rides along. An aggregate without GROUP BY folds
// without any per-batch scratch, so it is bounded in bytes as well.
func TestAnalyticAllocsLateMaterialised(t *testing.T) {
	const n, shards, k, groups = 20_000, 4, 50, 7
	tbl := blockTable(t, shards, n)
	// Per shard: the heap keeps k rows (one value slice each); the
	// aggregator's group table, key arenas and state columns double as
	// groups arrive, and a STRING group key's code table is reused from
	// segment to segment. The rest (fan-out, matchers, scratch, the Rows)
	// is fixed; for the scalar statement it is under scalarBytes, well
	// below one row list and bucket list per shard (16 KiB each).
	const perGroup, fixed, scalarBytes = 12, 150, 16 << 10
	for name, tc := range map[string]struct {
		src   string
		rows  int
		limit int
		bytes uint64 // per query; 0 = not bounded
	}{
		"topk":   {"SELECT name, v FROM t WHERE k >= 0 ORDER BY v DESC LIMIT 50", k, shards*k + fixed, 0},
		"group":  {"SELECT name, COUNT(*) AS n, AVG(v) AS a, MAX(k) AS hi FROM t WHERE k >= 0 GROUP BY name", groups, shards*groups*perGroup + fixed, 0},
		"scalar": {"SELECT COUNT(*) AS n, SUM(v) AS s, MIN(v) AS lo FROM t WHERE k >= 0", 1, fixed, scalarBytes},
	} {
		pq, err := tbl.Prepare(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		run := func() {
			rows, err := pq.Execute()
			if err != nil {
				t.Fatal(err)
			}
			for got = 0; rows.Next(); got++ {
			}
			if err := rows.Close(); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(5, run)
		if got != tc.rows {
			t.Fatalf("%s: %d rows, want %d", name, got, tc.rows)
		}
		if allocs > float64(tc.limit) {
			t.Errorf("%s: %.0f allocations over %d matching rows, want <= %d", name, allocs, n, tc.limit)
		} else {
			t.Logf("%s: %.0f allocations over %d matching rows (limit %d)", name, allocs, n, tc.limit)
		}
		if tc.bytes == 0 {
			continue
		}
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		if bytes := (after.TotalAlloc - before.TotalAlloc) / runs; bytes > tc.bytes {
			t.Errorf("%s: %d bytes per query over %d matching rows, want <= %d", name, bytes, n, tc.bytes)
		} else {
			t.Logf("%s: %d bytes per query (limit %d)", name, bytes, tc.bytes)
		}
	}
}

// TestGroupByHighCardinalityMemory bounds what a GROUP BY over a
// near-unique INT column followed by a near-unique STRING column
// allocates: bytes per group, never per (group, dictionary entry), and a
// count of allocations that does not grow with the groups — the group
// table keeps every group's key and state in flat columns that double,
// so a query makes O(batches + log groups) allocations, not a few per
// group.
func TestGroupByHighCardinalityMemory(t *testing.T) {
	const n, queryAllocs, perGroupBytes = 20_000, 1000, 4 << 10
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
		if allocs > queryAllocs || bytes > n*perGroupBytes {
			t.Errorf("GROUP BY %s: %d allocations, %d bytes for %d groups, want <= %d and <= %d", keys, allocs, bytes, n, queryAllocs, n*perGroupBytes)
		} else {
			t.Logf("GROUP BY %s: %d allocations, %d bytes for %d groups", keys, allocs, bytes, n)
		}
	}
}
