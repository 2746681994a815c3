package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"fungusdb/internal/fungus"
	"fungusdb/internal/query"
	"fungusdb/internal/tuple"
)

// This file is the engine's differential harness. The oracle is the
// simplest evaluator the repository has: dump every shard's live tuples
// one at a time by ID, filter them with the tree interpreter (Expr.Eval),
// finish with query.Execute. Every execution route — stream, aggregate,
// ordered top-k, material, consume — at shards 1 and 3, under rot,
// consume and compaction churn, must return the oracle's rows in the
// oracle's order, or fail with the oracle's error text.

var oracleSchema = tuple.MustSchema(
	tuple.Column{Name: "k", Kind: tuple.KindInt},
	tuple.Column{Name: "v", Kind: tuple.KindFloat},
	tuple.Column{Name: "name", Kind: tuple.KindString},
	tuple.Column{Name: "ok", Kind: tuple.KindBool},
)

// oracleWheres is every WHERE shape with a kernel, every shape that
// falls to an interpreted leaf, and the error paths whose messages are
// pinned (the corpus the closure compiler's equivalence test used to
// run, now checked end to end).
var oracleWheres = []string{
	"true",
	"false",
	"k > 3",
	"k >= 3 AND k <= 10",
	"3 < k",
	"3.5 >= v",
	"v = 7.5",
	"v != 7.5",
	"k = v",
	"v = k",
	"v < k",
	"name = \"beta\"",
	"\"beta\" != name",
	"name < \"b\"",
	"name = name",
	"ok = ok",
	"name LIKE \"%a\"",
	"name LIKE \"a\\%b%\"",
	"name NOT LIKE \"%a%\"",
	"name LIKE name",
	"ok",
	"ok = true",
	"NOT ok",
	"ok AND k > 0",
	"ok OR v < 3.0",
	"k IN (1, 2, 3)",
	"k IN (1.0, 2, 19)",
	"name IN (\"alpha\", \"gamma\", \"nope\")",
	"name NOT IN (\"alpha\")",
	"k IN (v, 3)",
	"k BETWEEN 2 AND 8",
	"k + 1 > v - 0.5",
	"k * 2 = 4",
	"k % 3 = 0",
	"-k > -20",
	"_t >= 2",
	"_f < 0.5",
	"_id BETWEEN 5 AND 9",
	"_id % 2 = 0 AND v > 1.0",
	"(k > 0 OR ok) AND NOT (name = \"beta\")",
	"k % 3 = 0 AND name LIKE \"%a\"",
	"k % 3 = 0 OR v > 50.0",
	"NOT (k % 2 = 0)",
	// Errors: for every row, or only where a row's values make them.
	"name > 3",
	"3 > name",
	"ok > 1",
	"k AND ok",
	"ok AND k",
	"NOT k",
	"name LIKE 3",
	"k LIKE \"a%\"",
	"-name > 0",
	"k / 0 = 1",
	"k % 0 = 1",
	"k / (k - 3) > 0",
	"k < 0 OR k / (k - 3) > 0",
	"100 / (k - 3) > 0 AND k >= 300",
	"name + name = \"x\"",
	"v > 0.0 AND name > 3",
	"k < 3 OR name > 5",
	"k",
	"k + 1",
	"name",
}

// oracleDump copies every shard's live tuples out, in shard ID order.
// It reads one tuple at a time by ID, never through a batch walk, so a
// bug in the walk the engine scans with shows up as a mismatch.
func oracleDump(tbl *Table) [][]tuple.Tuple {
	parts := make([][]tuple.Tuple, tbl.store.NumShards())
	for i := range parts {
		tbl.shardMu[i].RLock()
		sh := tbl.store.Shard(i)
		for id, ok := sh.FirstLive(); ok; id, ok = sh.NextLive(id) {
			tp, err := sh.Get(id)
			if err != nil {
				panic(err)
			}
			parts[i] = append(parts[i], tp)
		}
		tbl.shardMu[i].RUnlock()
	}
	return parts
}

// oracleWant is what the oracle expects of one statement.
type oracleWant struct {
	rows []string // the answer, rendered, when the statement succeeds
	// errs holds the acceptable error texts; empty means the statement
	// must succeed. One shard's error is exact; with several shards
	// erring on different rows the engine reports the lowest shard's.
	errs []string
	// maySucceed: a multi-shard streaming LIMIT may cancel the erroring
	// producer before it reaches its row.
	maySucceed bool
	answered   []tuple.ID // what a CONSUME removes
}

func oracleMatch(where query.Expr, tp *tuple.Tuple) (bool, error) {
	if where == nil {
		return true, nil
	}
	v, err := where.Eval(query.TupleEnv{Schema: oracleSchema, Tuple: tp})
	if err != nil {
		return false, err
	}
	if v.Kind() != tuple.KindBool {
		return false, fmt.Errorf("query: predicate yields %s, want BOOL", v.Kind())
	}
	return v.AsBool(), nil
}

// oracleEval evaluates src over the dumped shards. Each shard is walked
// in ID order and stops at its first erroring row — or, on the routes
// that cap a shard's contribution (a streaming LIMIT, QueryOpts.Limit),
// at the cap, whichever comes first: that is "stop at LIMIT before a
// later erroring row". lenient treats a row whose WHERE errors as a
// non-match: the answer of a scan that pruning kept away from every
// such row.
func oracleEval(t *testing.T, shards [][]tuple.Tuple, src string, optLimit int, lenient bool) oracleWant {
	t.Helper()
	stmt, err := query.ParseSelect(src)
	if err != nil {
		t.Fatalf("%q: %v", src, err)
	}
	agg := len(stmt.GroupBy) > 0
	for _, tg := range stmt.Targets {
		agg = agg || tg.Agg != query.AggNone
	}
	ordered := len(stmt.OrderBy) > 0
	streaming := !stmt.Consume && !agg && !ordered
	topk := !stmt.Consume && !agg && ordered && stmt.Limit > 0 && optLimit == 0
	shardCap := optLimit
	if streaming && stmt.Limit > 0 && (shardCap == 0 || stmt.Limit < shardCap) {
		shardCap = stmt.Limit
	}
	firstBlock := query.BlockRows
	if shardCap > 0 && shardCap < firstBlock {
		firstBlock = shardCap
	}

	var want oracleWant
	parts := make([][]tuple.Tuple, len(shards))
	erring, racy := 0, 0
	for s, rows := range shards {
		failed := false
		for i := range rows {
			if !failed && shardCap > 0 && len(parts[s]) == shardCap {
				break
			}
			ok, err := oracleMatch(stmt.Where, &rows[i])
			if err != nil && !lenient {
				want.errs = append(want.errs, err.Error())
				if !failed {
					failed = true
					erring++
					if streaming && shardCap > 0 && len(shards) > 1 && len(parts[s]) >= firstBlock {
						racy++
					}
				}
				if !topk {
					break
				}
				// An axis-ordered top-k may walk the shard backwards: any
				// erroring row can be the first it meets.
				continue
			}
			if ok && !failed {
				parts[s] = append(parts[s], rows[i])
			}
		}
	}
	want.maySucceed = erring > 0 && racy == erring
	merged := mergeByID(parts, shardCap)
	for i := range merged {
		want.answered = append(want.answered, merged[i].ID)
	}
	g, err := query.Execute(stmt, oracleSchema, merged)
	if err != nil {
		want.errs = append(want.errs, err.Error())
		return want
	}
	for _, row := range g.Rows {
		want.rows = append(want.rows, renderRow(row))
	}
	return want
}

func renderRow(vals []tuple.Value) string {
	var sb strings.Builder
	for i, v := range vals {
		if i > 0 {
			sb.WriteByte('|')
		}
		sb.WriteString(v.String())
	}
	return sb.String()
}

// oracleRun executes src on the engine and renders what came back.
func oracleRun(t *testing.T, tbl *Table, src string, opt QueryOpts) (rows []string, scanned int, err error) {
	t.Helper()
	pq, err := tbl.Prepare(src)
	if err != nil {
		t.Fatalf("%q: prepare: %v", src, err)
	}
	rs, err := pq.ExecuteOpts(opt)
	if err != nil {
		return nil, 0, err
	}
	defer rs.Close()
	for rs.Next() {
		rows = append(rows, renderRow(rs.Values()))
	}
	return rows, rs.Scanned(), rs.Err()
}

// firstRows keeps a failure message readable.
func firstRows(rows []string) []string {
	if len(rows) > 8 {
		return append(rows[:8:8], "...")
	}
	return rows
}

func sameRows(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// oracleCheck runs one statement against the oracle. Peeks run twice:
// with pruning off the engine must equal the oracle exactly — rows,
// order, error text. With pruning on it must equal it whenever the
// oracle succeeds; where the oracle errors, pruning may have kept the
// scan away from every unevaluable row (docs/QUERY.md), and then the
// answer is the lenient oracle's. CONSUME statements run once, pruned,
// and must remove exactly what they answered.
func oracleCheck(t *testing.T, tbl *Table, stage, src string, opt QueryOpts) {
	t.Helper()
	shards := oracleDump(tbl)
	strict := oracleEval(t, shards, src, opt.Limit, false)
	// The answer of a scan that pruning kept away from every erroring
	// row; only consulted where the strict oracle errors.
	lenient := strict
	if len(strict.errs) > 0 {
		lenient = oracleEval(t, shards, src, opt.Limit, true)
	}
	fail := func(mode string, got []string, gerr error, want oracleWant) {
		t.Helper()
		t.Fatalf("%s: %q (%s, opt %+v):\n  engine: %d rows %q, err %v\n  oracle: %d rows %q, errs %q (may succeed: %v)",
			stage, src, mode, opt, len(got), firstRows(got), gerr, len(want.rows), firstRows(want.rows), want.errs, want.maySucceed)
	}
	exact := func(mode string, got []string, gerr error) {
		t.Helper()
		switch {
		case gerr != nil:
			for _, e := range strict.errs {
				if e == gerr.Error() {
					return
				}
			}
			fail(mode, got, gerr, strict)
		case len(strict.errs) > 0 && !strict.maySucceed, !sameRows(got, strict.rows):
			fail(mode, got, gerr, strict)
		}
	}
	pruned := func(got []string, gerr error) {
		t.Helper()
		if gerr != nil || len(strict.errs) == 0 {
			exact("pruned", got, gerr)
			return
		}
		if !sameRows(got, lenient.rows) {
			fail("pruned, errors hidden", got, gerr, lenient)
		}
	}

	if strings.HasPrefix(src, "SELECT CONSUME") {
		got, _, gerr := oracleRun(t, tbl, src, opt)
		pruned(got, gerr)
		gone := map[tuple.ID]bool{}
		if gerr == nil {
			for _, id := range lenient.answered {
				gone[id] = true
			}
		}
		after := oracleDump(tbl)
		for s := range shards {
			var want []tuple.ID
			for i := range shards[s] {
				if !gone[shards[s][i].ID] {
					want = append(want, shards[s][i].ID)
				}
			}
			if len(after[s]) != len(want) {
				t.Fatalf("%s: %q: shard %d holds %d tuples after the cut, want %d", stage, src, s, len(after[s]), len(want))
			}
			for i := range want {
				if after[s][i].ID != want[i] {
					t.Fatalf("%s: %q: shard %d tuple %d is ID %d, want %d", stage, src, s, i, after[s][i].ID, want[i])
				}
			}
		}
		return
	}

	pruneOffHook = true
	got, scannedU, uerr := oracleRun(t, tbl, src, opt)
	pruneOffHook = false
	exact("unpruned", got, uerr)
	got, scannedP, gerr := oracleRun(t, tbl, src, opt)
	pruned(got, gerr)
	if uerr == nil && gerr == nil && scannedP > scannedU {
		t.Fatalf("%s: %q: pruned scan examined more tuples (%d > %d)", stage, src, scannedP, scannedU)
	}
}

func TestOracleEveryRouteUnderChurn(t *testing.T) {
	names := []string{"alpha", "beta", "gamma", "", "a%b_c", "name-1", "name-3", "name-7"}
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db := openDB(t)
			tbl, err := db.CreateTable("t", TableConfig{
				Schema:      oracleSchema,
				Fungus:      fungus.TTL{Lifetime: 9},
				Shards:      shards,
				SegmentSize: 48,
			})
			if err != nil {
				t.Fatal(err)
			}
			seq := 0
			insert := func(n int, v func(seq int) float64) {
				rows := make([][]tuple.Value, n)
				for i := range rows {
					rows[i] = Row(seq, v(seq), names[seq%len(names)], seq%3 == 0)
					seq++
				}
				if _, err := tbl.InsertBatch(rows); err != nil {
					t.Fatal(err)
				}
			}
			finite := func(seq int) float64 { return float64(seq%97) + 0.5 }
			tick := func(n int) {
				for i := 0; i < n; i++ {
					if _, err := db.Tick(); err != nil {
						t.Fatal(err)
					}
				}
			}

			// check runs every statement of every route. nan marks the
			// stage whose extent holds NaN: ORDER BY v is left out there
			// (NaN is incomparable, and which pair of rows a sort compares
			// first is the sort's business).
			check := func(stage string, nan bool) {
				t.Helper()
				hi := seq
				run := func(src string, opts ...QueryOpts) {
					t.Helper()
					opt := QueryOpts{}
					if len(opts) > 0 {
						opt = opts[0]
					}
					oracleCheck(t, tbl, stage, src, opt)
				}
				// Stream and aggregate routes over the whole WHERE corpus.
				for _, w := range oracleWheres {
					run("SELECT k, v, name, ok FROM t WHERE " + w)
					run("SELECT COUNT(*) AS n, MAX(k) AS hi FROM t WHERE " + w)
				}
				// Stream: selectivities from 0 to 1, LIMIT inside and
				// across hand-off blocks, computed and failing targets, the
				// programmatic cap, and a LIMIT that ends the stream before
				// a row that would fail.
				run("SELECT * FROM t")
				run(fmt.Sprintf("SELECT k, v FROM t WHERE k >= %d", hi-hi/10-1))
				run(fmt.Sprintf("SELECT k FROM t WHERE k < %d", hi/10+1))
				run(fmt.Sprintf("SELECT k FROM t WHERE k = %d", hi/2))
				run(fmt.Sprintf("SELECT k FROM t WHERE k = %d", hi+50))
				run(fmt.Sprintf("SELECT k, name FROM t WHERE k BETWEEN %d AND %d", hi/3, hi/2))
				run(fmt.Sprintf("SELECT k FROM t WHERE _id < %d", hi/4+1))
				run(fmt.Sprintf("SELECT k FROM t WHERE _t >= %d", int64(db.Now())-2))
				run(fmt.Sprintf("SELECT k FROM t WHERE k IN (%d, %d, %d)", hi/4, hi/2, hi+9))
				run(fmt.Sprintf("SELECT k FROM t WHERE k >= %d LIMIT 13", hi/5))
				run("SELECT k FROM t LIMIT 300")
				run("SELECT k + 1 AS k1, _t, _f, _id FROM t WHERE k % 5 = 0 LIMIT 40")
				run("SELECT 100 / (k - 3) AS q FROM t")
				run("SELECT 100 / (k - 3) AS q FROM t LIMIT 2")
				run("SELECT k FROM t WHERE 100 / (k - 3) > 0 LIMIT 2")
				run(fmt.Sprintf("SELECT k FROM t WHERE 100 / (k - %d) > 0 LIMIT 20", hi-30))
				run("SELECT k FROM t WHERE v > 50.0 LIMIT 5")
				run("SELECT k FROM t WHERE k % 2 = 0", QueryOpts{Limit: 7})
				run("SELECT k FROM t WHERE k % 2 = 0 LIMIT 20", QueryOpts{Limit: 7})
				// Aggregate: batch folds, decoded folds (GROUP BY, computed
				// arguments), fold errors, and the programmatic cap that
				// sends an aggregate to the material route.
				run("SELECT COUNT(*) AS n FROM t")
				run(fmt.Sprintf("SELECT COUNT(*) AS n, SUM(v) AS s, AVG(v) AS a FROM t WHERE k >= %d", hi/3))
				run("SELECT MIN(v) AS lo, MAX(v) AS hi, SUM(k) AS s FROM t WHERE ok")
				run("SELECT name, COUNT(*) AS n, SUM(k) AS s FROM t WHERE k % 3 = 0 GROUP BY name ORDER BY name")
				run("SELECT SUM(k * 2) AS s FROM t WHERE name LIKE \"%a\"")
				run("SELECT SUM(name) AS s FROM t")
				run("SELECT MIN(ok) AS m FROM t WHERE k < 0 OR name > 5")
				run("SELECT COUNT(*) AS n FROM t WHERE k % 2 = 0", QueryOpts{Limit: 9})
				// GROUP BY over every key kind — STRING by dictionary code,
				// INT, BOOL, FLOAT (NaN is one group, -0 is not 0), a system
				// column, two columns — with computed arguments, and the
				// first failing (row, target) pair whatever the target order.
				run("SELECT name, COUNT(*) AS n, AVG(v) AS a, MIN(k) AS lo, MAX(_id) AS hi FROM t GROUP BY name")
				run("SELECT k, COUNT(*) AS n, MAX(v) AS m FROM t WHERE k % 7 = 0 GROUP BY k")
				run("SELECT ok, COUNT(*) AS n, SUM(k) AS s, MIN(name) AS first, MAX(ok) AS any FROM t GROUP BY ok")
				run("SELECT v, COUNT(*) AS n, MIN(k) AS lo FROM t GROUP BY v ORDER BY lo")
				run("SELECT _t, COUNT(*) AS n, MAX(k) AS hi, MIN(_f) AS f FROM t GROUP BY _t")
				run("SELECT name, ok, COUNT(*) AS n, SUM(_t) AS s FROM t WHERE k % 2 = 0 GROUP BY name, ok")
				run("SELECT _t, name, COUNT(ok) AS n FROM t GROUP BY _t, name ORDER BY n DESC, name, _t LIMIT 6")
				run("SELECT name, SUM(k * 2) AS s, COUNT(k + 1) AS n, MAX(0 - k) AS m FROM t GROUP BY name")
				run(fmt.Sprintf("SELECT name, SUM(100 / (k - %d)) AS s FROM t GROUP BY name", hi-40))
				run("SELECT ok, SUM(name) AS s FROM t GROUP BY ok")
				run("SELECT MAX(v) AS m, SUM(name) AS s FROM t")
				run("SELECT SUM(name) AS s, MAX(v) AS m FROM t GROUP BY ok")
				// Ordered top-k, including both directions of both axes.
				for _, order := range []string{"k DESC", "name DESC, k ASC", "_t ASC", "_t DESC, _id DESC", "_id ASC", "_id DESC"} {
					run(fmt.Sprintf("SELECT k, name, _t, _id FROM t ORDER BY %s LIMIT 9", order))
					run(fmt.Sprintf("SELECT k, name, _t, _id FROM t WHERE k %% 3 = 0 AND ok ORDER BY %s LIMIT 9", order))
					run(fmt.Sprintf("SELECT k, name, _t, _id FROM t WHERE name > 3 ORDER BY %s LIMIT 9", order))
					run(fmt.Sprintf("SELECT k, name, _t, _id FROM t WHERE 100 / (k - 3) > 0 ORDER BY %s LIMIT 9", order))
				}
				run("SELECT k, _id FROM t ORDER BY _id DESC LIMIT 100000")
				// Sort keys off the column slices: a STRING key, ties on
				// every key broken by ID, a LIMIT beyond the match count, and
				// a computed target that fails on a row the heap would drop.
				run("SELECT name, k FROM t ORDER BY name LIMIT 9")
				run("SELECT name, ok, _id FROM t WHERE k % 2 = 0 ORDER BY name DESC, ok ASC LIMIT 12")
				run("SELECT k, name FROM t WHERE k % 50 = 0 ORDER BY name DESC LIMIT 500")
				run(fmt.Sprintf("SELECT k, 100 / (k - %d) AS q FROM t ORDER BY k DESC LIMIT 5", hi-40))
				run(fmt.Sprintf("SELECT k + 0 AS kk, name FROM t WHERE k >= %d ORDER BY name, kk DESC LIMIT 8", hi/2))
				if !nan {
					run("SELECT k, v, name FROM t WHERE v >= 10.0 ORDER BY v DESC, name ASC LIMIT 7")
					run("SELECT ok, v, _f FROM t ORDER BY ok DESC, v ASC, _f LIMIT 7")
				}
				// Material: a sort barrier without LIMIT, with the
				// programmatic cap, and a distilling peek.
				run("SELECT k, name FROM t WHERE k % 3 = 0 ORDER BY name DESC, k ASC")
				run("SELECT k, name FROM t WHERE name > 3 ORDER BY k")
				run("SELECT k FROM t ORDER BY k DESC LIMIT 5", QueryOpts{Limit: 30})
				run(fmt.Sprintf("SELECT k, v FROM t WHERE k < %d", hi/10+1), QueryOpts{Distill: "d"})
				// Consume: a cut that fails removes nothing; one that
				// succeeds removes exactly its answer.
				run("SELECT CONSUME k FROM t WHERE name > 3")
				run("SELECT CONSUME k FROM t WHERE 100 / (k - 3) > 0")
				run("SELECT CONSUME k, name FROM t WHERE k % 11 = 0 ORDER BY k DESC LIMIT 4")
				run("SELECT CONSUME k FROM t WHERE k % 13 = 0", QueryOpts{Limit: 6})
			}

			insert(400, finite)
			check("fresh", false)

			// Decay rot: hollow and drop early segments.
			tick(5)
			insert(300, finite)
			tick(5)
			check("after rot", false)

			// Consume eviction: mid-segment holes in the liveness bitmap.
			oracleCheck(t, tbl, "consume", "SELECT CONSUME k FROM t WHERE k % 7 = 0", QueryOpts{})
			check("after consume", false)

			// Compaction rewrites the column slices (fresh segment tags:
			// stale dictionary truth tables must not survive).
			tbl.Compact()
			check("after compact", false)

			insert(250, finite)
			check("after regrowth", false)

			// Unevaluable values in a few rows: comparisons against v now
			// fail exactly where a scan reaches one of them.
			insert(60, func(seq int) float64 {
				switch {
				case seq%17 == 0:
					return math.NaN()
				case seq%5 == 0:
					return math.Copysign(0, float64(seq%2)-0.5) // -0 and 0
				}
				return finite(seq)
			})
			check("with NaN", true)

			// One aggregate error text pinned literally: the oracle above
			// only proves the routes agree with each other.
			_, _, err = oracleRun(t, tbl, "SELECT ok, SUM(name) AS s FROM t GROUP BY ok", QueryOpts{})
			if err == nil || err.Error() != "query: SUM over non-numeric STRING" {
				t.Errorf("SUM over a STRING column: err = %v", err)
			}

			st := tbl.StoreStats()
			if st.RowsVectorized == 0 || st.BatchesScanned == 0 {
				t.Errorf("no batch was scanned (stats %+v) — test has lost its teeth", st)
			}
			if st.SegsPruned == 0 || st.TuplesSkipped == 0 {
				t.Errorf("no pruning happened at all (stats %+v) — test has lost its teeth", st)
			}
		})
	}
}

// TestOracleSeesEveryShard guards the harness itself: the dump must be
// the whole extent, in ID order per shard.
func TestOracleSeesEveryShard(t *testing.T) {
	db := openDB(t)
	tbl, err := db.CreateTable("t", TableConfig{Schema: oracleSchema, Shards: 3, SegmentSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := tbl.Insert(Row(i, float64(i), "x", true)); err != nil {
			t.Fatal(err)
		}
	}
	var ids []int
	for _, part := range oracleDump(tbl) {
		if !sort.SliceIsSorted(part, func(i, j int) bool { return part[i].ID < part[j].ID }) {
			t.Fatal("shard dump is not in ID order")
		}
		for i := range part {
			ids = append(ids, int(part[i].ID))
		}
	}
	sort.Ints(ids)
	if len(ids) != 100 || ids[0] != 0 || ids[99] != 99 {
		t.Fatalf("dump holds %d tuples (%v..)", len(ids), ids[:3])
	}
}
