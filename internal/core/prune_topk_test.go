package core

import (
	"fmt"
	"strings"
	"testing"

	"fungusdb/internal/tuple"
)

var pruneSchema = tuple.MustSchema(
	tuple.Column{Name: "k", Kind: tuple.KindInt},
	tuple.Column{Name: "v", Kind: tuple.KindFloat},
	tuple.Column{Name: "name", Kind: tuple.KindString},
)

// drainValues runs a prepared query and renders every row, so result
// sets compare exactly (values and order).
func drainValues(t *testing.T, pq *PreparedQuery, opt QueryOpts, params ...tuple.Value) ([]string, int) {
	t.Helper()
	rows, err := pq.ExecuteOpts(opt, params...)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	defer rows.Close()
	var out []string
	for rows.Next() {
		var sb strings.Builder
		for i, v := range rows.Values() {
			if i > 0 {
				sb.WriteByte('|')
			}
			sb.WriteString(v.String())
		}
		out = append(out, sb.String())
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("rows: %v", err)
	}
	return out, rows.Scanned()
}

// TestOrderedTopKParity proves the per-shard top-k route returns
// byte-identical rows to the materialised sort-barrier path (same
// query without LIMIT, truncated by the reader), including DESC keys
// and ID tie-breaks, and that its peak retained row count stays
// O(shards × k) while streaming a top-10 over 100k rows.
func TestOrderedTopKParity(t *testing.T) {
	const n = 100_000
	const k = 10
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db := openDB(t)
			tbl, err := db.CreateTable("t", TableConfig{Schema: pruneSchema, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			rows := make([][]tuple.Value, 1000)
			seq := 0
			for filled := 0; filled < n; filled += len(rows) {
				for i := range rows {
					// Few distinct v values force heavy ties: the ID
					// tie-break must match the stable sort exactly.
					rows[i] = Row(seq, float64(seq%13), fmt.Sprintf("name-%d", seq%5))
					seq++
				}
				if _, err := tbl.InsertBatch(rows); err != nil {
					t.Fatal(err)
				}
			}

			for _, order := range []string{"v DESC, name ASC", "v ASC", "name DESC, v DESC"} {
				src := fmt.Sprintf("SELECT k, v, name FROM t ORDER BY %s", order)
				pqTopK, err := tbl.Prepare(src + fmt.Sprintf(" LIMIT %d", k))
				if err != nil {
					t.Fatal(err)
				}
				pqBarrier, err := tbl.Prepare(src)
				if err != nil {
					t.Fatal(err)
				}

				peak := -1
				topkPeakHook = func(retained int) { peak = retained }
				got, scanned := drainValues(t, pqTopK, QueryOpts{})
				topkPeakHook = nil

				want, _ := drainValues(t, pqBarrier, QueryOpts{})
				if len(want) > k {
					want = want[:k]
				}
				if len(got) != k {
					t.Fatalf("%q: %d rows, want %d", order, len(got), k)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%q: row %d: topk %q != barrier %q", order, i, got[i], want[i])
					}
				}
				if scanned != n {
					t.Errorf("%q: scanned %d, want %d (no WHERE, full scan)", order, scanned, n)
				}
				if peak < 0 {
					t.Fatalf("%q: top-k route was not taken", order)
				}
				if peak > shards*k {
					t.Errorf("%q: peak retained rows %d > shards×k = %d", order, peak, shards*k)
				}
			}

			// LIMIT larger than the matching set degrades gracefully.
			pq, err := tbl.Prepare("SELECT k FROM t WHERE k < 7 ORDER BY k DESC LIMIT 50")
			if err != nil {
				t.Fatal(err)
			}
			got, _ := drainValues(t, pq, QueryOpts{})
			if len(got) != 7 || got[0] != "6" || got[6] != "0" {
				t.Errorf("under-full top-k = %v", got)
			}
		})
	}
}

// TestOrderedTopKRouting pins which plans take the push-down: ordered
// LIMIT peeks do; consume, touch-on-read, distillation and
// programmatic caps keep the materialised barrier (they need the
// matching tuple set, not just the output rows).
func TestOrderedTopKRouting(t *testing.T) {
	db := openDB(t)
	tbl, err := db.CreateTable("t", TableConfig{Schema: pruneSchema})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := tbl.Insert(Row(i, float64(i), "x")); err != nil {
			t.Fatal(err)
		}
	}
	probe := func(src string, opt QueryOpts) bool {
		t.Helper()
		taken := false
		topkPeakHook = func(int) { taken = true }
		defer func() { topkPeakHook = nil }()
		pq, err := tbl.Prepare(src)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := pq.ExecuteOpts(opt)
		if err != nil {
			t.Fatal(err)
		}
		for rows.Next() {
		}
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
		return taken
	}
	if !probe("SELECT k FROM t ORDER BY k DESC LIMIT 5", QueryOpts{}) {
		t.Error("ordered+limit peek skipped the push-down")
	}
	if probe("SELECT k FROM t ORDER BY k DESC", QueryOpts{}) {
		t.Error("unlimited ordered peek took the push-down")
	}
	if probe("SELECT k FROM t ORDER BY k DESC LIMIT 5", QueryOpts{Limit: 3}) {
		t.Error("programmatic cap took the push-down")
	}
	if probe("SELECT k FROM t ORDER BY k DESC LIMIT 5", QueryOpts{Distill: "d"}) {
		t.Error("distilling query took the push-down")
	}
	if probe("SELECT CONSUME k FROM t ORDER BY k DESC LIMIT 5", QueryOpts{}) {
		t.Error("consume took the push-down")
	}
}

// streamStopTable builds the 2-shard, 300k-row extent the cancellation
// tests share: k equals the global insertion ID, so shard 0 holds the
// even ks and shard 1 the odd ones.
func streamStopTable(t *testing.T) *Table {
	t.Helper()
	const n = 300_000
	db := openDB(t)
	tbl, err := db.CreateTable("t", TableConfig{Schema: pruneSchema, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]tuple.Value, 1000)
	seq := 0
	for filled := 0; filled < n; filled += len(rows) {
		for i := range rows {
			rows[i] = Row(seq, float64(seq), "x")
			seq++
		}
		if _, err := tbl.InsertBatch(rows); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// parkAfterHandOff makes cancellation observable without timing: the
// producers of the given shards stop right after each block they hand
// to the merge and resume only once the stream has been cancelled
// (Close, or the merge reaching LIMIT). What they scan after that is
// what cancellation failed to prevent.
func parkAfterHandOff(t *testing.T, shards ...int) {
	t.Helper()
	streamHandOffHook = func(shard int, done <-chan struct{}) {
		for _, s := range shards {
			if s == shard {
				<-done
			}
		}
	}
	t.Cleanup(func() { streamHandOffHook = nil })
}

// unpruned runs the rest of the test with zone-map pruning off.
func unpruned(t *testing.T) {
	t.Helper()
	pruneOffHook = true
	t.Cleanup(func() { pruneOffHook = false })
}

// TestStreamLimitEarlyStop verifies the plain-peek LIMIT satellite:
// once the k-way merge has emitted LIMIT rows, a producer still
// scanning a long matchless stretch is cancelled instead of walking to
// the end of its shard. Shard 0 supplies all 512 LIMIT rows (even ks
// below 1023, where its own match cap stops it); shard 1's 256 matches
// sit higher up (rows 1000..1255 of the shard), so its head block
// arrives but is never drained — its producer, parked after that
// hand-off until the merge has hit LIMIT, would scan its remaining
// ~148k tuples if the merge finishing did not cancel it. Pruning is
// off to isolate the cancellation from the zone maps, which would
// otherwise skip the tail wholesale.
func TestStreamLimitEarlyStop(t *testing.T) {
	tbl := streamStopTable(t)
	pq, err := tbl.Prepare(
		"SELECT k FROM t WHERE (k % 2 = 0 AND k < 1023) OR (k % 2 = 1 AND k BETWEEN 2001 AND 2511) LIMIT 512")
	if err != nil {
		t.Fatal(err)
	}
	parkAfterHandOff(t, 1)
	unpruned(t)
	got, scanned := drainValues(t, pq, QueryOpts{})
	if len(got) != 512 {
		t.Fatalf("rows = %d, want 512", len(got))
	}
	if got[0] != "0" || got[511] != "1022" {
		t.Fatalf("unexpected rows %q..%q", got[0], got[511])
	}
	// Shard 0 stops itself within its first storage batch. Shard 1 is
	// parked inside its second one and, once released, may finish that
	// batch and must notice the cancellation at the next one's poll.
	if bound := tuple.BatchRows + 3*tuple.BatchRows; scanned > bound {
		t.Errorf("scanned %d tuples, want <= %d: producer was not cancelled when the merge hit LIMIT", scanned, bound)
	}
}

// TestStreamCloseCancelsProducers: an early Close must cancel
// producers mid-scan (the v2 streaming handler relies on this to
// release shard read locks on client disconnect), even when no further
// sends would ever unblock them. Both shards hold 256 matches at their
// very start and nothing after; both producers are parked after
// handing that block off, until Close has fired.
func TestStreamCloseCancelsProducers(t *testing.T) {
	tbl := streamStopTable(t)
	pq, err := tbl.Prepare("SELECT k FROM t WHERE k < 512")
	if err != nil {
		t.Fatal(err)
	}
	parkAfterHandOff(t, 0, 1)
	unpruned(t)
	rows, err := pq.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatal(rows.Err())
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	// Per shard: the storage batch it was parked in, plus the next
	// one, whose poll notices the Close.
	if bound := 2 * 2 * tuple.BatchRows; rows.Scanned() > bound {
		t.Errorf("scanned %d tuples after an immediate Close, want <= %d", rows.Scanned(), bound)
	}
}

// TestLimitPlaceholderEndToEnd runs `LIMIT ?` through the prepared
// path on both the streaming route and the ordered top-k route.
func TestLimitPlaceholderEndToEnd(t *testing.T) {
	db := openDB(t)
	tbl, err := db.CreateTable("t", TableConfig{Schema: pruneSchema, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := tbl.Insert(Row(i, float64(i%10), "x")); err != nil {
			t.Fatal(err)
		}
	}
	pq, err := tbl.Prepare("SELECT k FROM t WHERE k >= ? LIMIT ?")
	if err != nil {
		t.Fatal(err)
	}
	if pq.NumParams() != 2 {
		t.Fatalf("NumParams = %d", pq.NumParams())
	}
	got, _ := drainValues(t, pq, QueryOpts{}, tuple.Int(100), tuple.Int(5))
	if len(got) != 5 || got[0] != "100" {
		t.Errorf("stream route rows = %v", got)
	}
	// Rebinding the same plan with a different limit.
	got, _ = drainValues(t, pq, QueryOpts{}, tuple.Int(100), tuple.Int(50))
	if len(got) != 50 {
		t.Errorf("rebind limit 50 returned %d rows", len(got))
	}
	// Bind-time type errors surface from Execute.
	if _, err := pq.Execute(tuple.Int(100), tuple.Float(5)); err == nil ||
		!strings.Contains(err.Error(), "LIMIT wants INT") {
		t.Errorf("float limit: %v", err)
	}
	if _, err := pq.Execute(tuple.Int(100)); err == nil {
		t.Error("arity violation accepted")
	}

	// Ordered top-k with a bound k.
	pq, err = tbl.Prepare("SELECT k, v FROM t ORDER BY v DESC, k DESC LIMIT ?")
	if err != nil {
		t.Fatal(err)
	}
	taken := false
	topkPeakHook = func(int) { taken = true }
	got, _ = drainValues(t, pq, QueryOpts{}, tuple.Int(3))
	topkPeakHook = nil
	if len(got) != 3 || got[0] != "199|9" {
		t.Errorf("topk rows = %v", got)
	}
	if !taken {
		t.Error("bound LIMIT ? did not reach the top-k route")
	}
	// LIMIT ? bound to 0 = unlimited.
	got, _ = drainValues(t, pq, QueryOpts{}, tuple.Int(0))
	if len(got) != 200 {
		t.Errorf("limit 0 rows = %d, want 200", len(got))
	}
}

// TestConsumePruned proves the consume cut composes with pruning: the
// removed set equals the unpruned predicate's matching set, and the
// conservation counters stay intact.
func TestConsumePruned(t *testing.T) {
	db := openDB(t)
	tbl, err := db.CreateTable("t", TableConfig{Schema: pruneSchema, Shards: 2, SegmentSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if _, err := tbl.Insert(Row(i, float64(i), "x")); err != nil {
			t.Fatal(err)
		}
	}
	before := tbl.StoreStats()
	g, err := tbl.SQL("SELECT CONSUME k FROM t WHERE k >= 450")
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Rows) != 50 {
		t.Fatalf("consumed %d, want 50", len(g.Rows))
	}
	after := tbl.StoreStats()
	if after.SegsPruned == before.SegsPruned {
		t.Error("consume cut did not prune any segment")
	}
	if tbl.Len() != 450 {
		t.Errorf("live = %d, want 450", tbl.Len())
	}
	c := tbl.Counters()
	if c.Consumed != 50 || c.Inserted != 500 {
		t.Errorf("counters = %+v", c)
	}
	// Everything below 450 is still there and still queryable.
	g, err = tbl.SQL("SELECT COUNT(*) AS n FROM t WHERE k >= 400")
	if err != nil {
		t.Fatal(err)
	}
	if g.Rows[0][0].AsInt() != 50 {
		t.Errorf("survivors above 400 = %v, want 50", g.Rows[0][0])
	}
}

// TestOrderedTopKHugeLimit: a LIMIT far beyond the matching set must
// not preallocate O(LIMIT) heap storage per shard (the bounded heaps
// grow with what they retain).
func TestOrderedTopKHugeLimit(t *testing.T) {
	db := openDB(t)
	tbl, err := db.CreateTable("t", TableConfig{Schema: pruneSchema, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := tbl.Insert(Row(i, float64(i), "x")); err != nil {
			t.Fatal(err)
		}
	}
	pq, err := tbl.Prepare("SELECT k FROM t ORDER BY k DESC LIMIT 100000000")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := drainValues(t, pq, QueryOpts{})
	if len(got) != 50 || got[0] != "49" {
		t.Errorf("rows = %d (first %q), want all 50 descending", len(got), got[0])
	}
}
