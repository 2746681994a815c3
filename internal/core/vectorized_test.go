package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"fungusdb/internal/fungus"
	"fungusdb/internal/tuple"
)

var vecSchema = tuple.MustSchema(
	tuple.Column{Name: "k", Kind: tuple.KindInt},
	tuple.Column{Name: "v", Kind: tuple.KindFloat},
	tuple.Column{Name: "name", Kind: tuple.KindString},
	tuple.Column{Name: "hot", Kind: tuple.KindBool},
)

// drainAny runs a prepared query and returns the rendered rows or the
// first error, wherever it surfaces (bind, execute or stream) — error
// queries must fail identically on both execution paths, so the error
// is a result here, not a test failure.
func drainAny(pq *PreparedQuery, opt QueryOpts, params ...tuple.Value) ([]string, error) {
	rows, err := pq.ExecuteOpts(opt, params...)
	if err != nil {
		return nil, err
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
	return out, rows.Err()
}

// TestVectorizedWriteThrough proves mutation contracts survive the
// batch route: TouchOnRead refreshes decay through batch-scanned
// tuples, and CONSUME removes exactly the batch-matched set.
func TestVectorizedWriteThrough(t *testing.T) {
	db := openDB(t)
	tbl, err := db.CreateTable("t", TableConfig{
		Schema: vecSchema, Shards: 2, SegmentSize: 32,
		Fungus:      fungus.AccessRefresh{Inner: fungus.Linear{Rate: 0.4}},
		TouchOnRead: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := tbl.Insert(Row(i, float64(i), "x", false)); err != nil {
			t.Fatal(err)
		}
	}
	// Let freshness decay to 0.2, touch half the extent back to full,
	// then tick once more: only the touched half survives the rot.
	for i := 0; i < 2; i++ {
		if _, err := db.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tbl.SQL("SELECT k FROM t WHERE k < 100"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Tick(); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Len(); got != 100 {
		t.Fatalf("after touch+rot: live = %d, want 100", got)
	}
	g, err := tbl.SQL("SELECT CONSUME k FROM t WHERE k < 50")
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Rows) != 50 || tbl.Len() != 50 {
		t.Fatalf("consume removed %d rows, live %d; want 50/50", len(g.Rows), tbl.Len())
	}
}

// TestAxisOrderedScanPrunes pins the ranked top-k walk: an ORDER BY
// LIMIT k peek whose first key is a bare numeric column — _t, _id, an
// INT or a FLOAT attribute — visits each shard's segments best first by
// that column's zone bounds and skips those whose bound cannot beat the
// worst retained row. A small top-k over a large extent must not read
// the whole table, yet return exactly what the materialised sort does.
// v is a FLOAT that rises with the ID.
func TestAxisOrderedScanPrunes(t *testing.T) {
	const n = 50_000
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db := openDB(t)
			tbl, err := db.CreateTable("t", TableConfig{Schema: vecSchema, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			rows := make([][]tuple.Value, 1000)
			seq := 0
			for filled := 0; filled < n; filled += len(rows) {
				for i := range rows {
					rows[i] = Row(seq%13, float64(seq)/4, fmt.Sprintf("name-%d", seq%5), seq%2 == 0)
					seq++
				}
				if _, err := tbl.InsertBatch(rows); err != nil {
					t.Fatal(err)
				}
				// Advance the clock so _t actually varies across segments.
				if filled%10_000 == 9_000 {
					if _, err := db.Tick(); err != nil {
						t.Fatal(err)
					}
				}
			}
			// The filtered query checks parity only: a shard whose rows
			// never match cannot fill its heap, so it legitimately scans
			// to the end (the bound needs k retained rows to bite). So do
			// the keys that bound nothing or repeat in every segment.
			for _, tc := range []struct {
				src     string
				wantCut bool
			}{
				{"SELECT k, _id FROM t ORDER BY _id DESC LIMIT 10", true},
				{"SELECT k, _id FROM t ORDER BY _id ASC LIMIT 10", true},
				{"SELECT k, _t, _id FROM t ORDER BY _t DESC, _id DESC LIMIT 10", true},
				{"SELECT k, v FROM t ORDER BY v DESC LIMIT 10", true},
				{"SELECT k, v FROM t ORDER BY v ASC LIMIT 10", true},
				{"SELECT v, name FROM t ORDER BY v DESC, name LIMIT 10", true},
				{"SELECT k, _id FROM t WHERE hot ORDER BY _id DESC LIMIT 10", false},
				{"SELECT k, v FROM t ORDER BY k DESC, v ASC LIMIT 10", false},
				{"SELECT k, _f FROM t ORDER BY _f, k LIMIT 10", false},
			} {
				src := tc.src
				got, scanned := drainValues(t, mustPrepare(t, tbl, src), QueryOpts{})
				// The same statement without LIMIT sorts the whole
				// matching set behind a forward scan.
				want, _ := drainValues(t, mustPrepare(t, tbl, strings.TrimSuffix(src, " LIMIT 10")), QueryOpts{})
				if len(want) > 10 {
					want = want[:10]
				}
				if strings.Join(got, " ") != strings.Join(want, " ") {
					t.Fatalf("%q: ranked %q, barrier %q", src, got, want)
				}
				if tc.wantCut && scanned >= n/2 {
					t.Errorf("%q: examined %d of %d tuples; segment bounds did not cut the scan", src, scanned, n)
				}
			}
		})
	}
}

// TestRankedTopKEdges: where a ranked walk could skip wrongly. Every
// statement must answer as the sort barrier does, error included, in
// segments of four rows (one shard, so segment i holds IDs 4i..4i+3):
//   - the worst survivor ties with a later segment's rows, which win on
//     a later key or lose on the ID: a tie never skips;
//   - INT keys 2^53 and 2^53+1 tie as float images, the ones sort keys
//     compare by, so their segments tie too;
//   - a segment holding a NaN key has no bounds and is visited first:
//     the barrier's error surfaces.
func TestRankedTopKEdges(t *testing.T) {
	db := openDB(t)
	tbl, err := db.CreateTable("t", TableConfig{Schema: vecSchema, SegmentSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	const big = 1 << 53
	ks := []int{big + 1, big + 1, big + 1, big + 1, 1, 2, 3, 4, big, big, big, big, 5, 6, 7, 8}
	vs := []float64{5, 5, 5, 5, 1, 1, 1, 1, 5, 5, 5, 5, 2, 2, 2, 2}
	for i := range ks {
		if _, err := tbl.Insert(Row(ks[i], vs[i], fmt.Sprintf("n%d", i%3), i%2 == 0)); err != nil {
			t.Fatal(err)
		}
	}
	same := func(src string) {
		t.Helper()
		got, gerr := drainAny(mustPrepare(t, tbl, src), QueryOpts{})
		want, werr := drainAny(mustPrepare(t, tbl, src[:strings.LastIndex(src, " LIMIT")]), QueryOpts{})
		if werr == nil && len(want) > 3 {
			want = want[:3]
		}
		if fmt.Sprint(gerr) != fmt.Sprint(werr) || strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%q: ranked %q (err %v), barrier %q (err %v)", src, got, gerr, want, werr)
		}
	}
	for _, src := range []string{
		"SELECT v, _id FROM t ORDER BY v DESC, _id DESC LIMIT 3",
		"SELECT v, _id FROM t ORDER BY v DESC LIMIT 3",
		"SELECT v, name, _id FROM t ORDER BY v DESC, name DESC LIMIT 3",
		"SELECT v, _id FROM t WHERE hot ORDER BY v ASC, _id DESC LIMIT 3",
		"SELECT k, _id FROM t ORDER BY k DESC, _id DESC LIMIT 3",
		"SELECT k, _id FROM t ORDER BY k DESC LIMIT 3",
		"SELECT k, _id FROM t ORDER BY k ASC, _id DESC LIMIT 3",
	} {
		same(src)
	}
	if got, _ := drainAny(mustPrepare(t, tbl, "SELECT k, _id FROM t ORDER BY k DESC, _id DESC LIMIT 3"), QueryOpts{}); len(got) != 3 || got[0] != fmt.Sprintf("%d|11", big) {
		t.Errorf("2^53 ties: %q, want ID 11 first", got)
	}
	for i, v := range []float64{9, math.NaN(), 0, 0} {
		if _, err := tbl.Insert(Row(i, v, "nan", true)); err != nil {
			t.Fatal(err)
		}
	}
	for _, src := range []string{
		"SELECT v, _id FROM t ORDER BY v DESC LIMIT 3",
		"SELECT v, _id FROM t ORDER BY v ASC LIMIT 3",
		"SELECT v, _id FROM t WHERE _id < 18 ORDER BY v DESC, _id LIMIT 3",
	} {
		same(src)
		if _, err := drainAny(mustPrepare(t, tbl, src), QueryOpts{}); err == nil {
			t.Errorf("%q: a NaN key sorted without an error", src)
		}
	}
}
