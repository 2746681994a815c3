package core

import (
	"fmt"
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

// TestAxisOrderedScanPrunes pins the zone-directed ordered scan: an
// ORDER BY _t (or _id) LIMIT k peek visits segments in key order and
// stops examining segments once the per-segment bounds cannot beat the
// worst retained row — a small top-k over a large extent must not read
// the whole table, yet return exactly what the materialised sort does.
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
					rows[i] = Row(seq, float64(seq%13), fmt.Sprintf("name-%d", seq%5), seq%2 == 0)
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
			// to the end (the axis bound needs k retained rows to bite).
			for _, tc := range []struct {
				src     string
				wantCut bool
			}{
				{"SELECT k, _id FROM t ORDER BY _id DESC LIMIT 10", true},
				{"SELECT k, _id FROM t ORDER BY _id ASC LIMIT 10", true},
				{"SELECT k, _t, _id FROM t ORDER BY _t DESC, _id DESC LIMIT 10", true},
				{"SELECT k, _id FROM t WHERE hot ORDER BY _id DESC LIMIT 10", false},
			} {
				src := tc.src
				pq, err := tbl.Prepare(src)
				if err != nil {
					t.Fatalf("%q: %v", src, err)
				}
				got, scanned := drainValues(t, pq, QueryOpts{})
				// The same statement without LIMIT sorts the whole
				// matching set behind a forward scan.
				barrier, err := tbl.Prepare(strings.TrimSuffix(src, " LIMIT 10"))
				if err != nil {
					t.Fatalf("%q: %v", src, err)
				}
				want, _ := drainValues(t, barrier, QueryOpts{})
				if len(want) > 10 {
					want = want[:10]
				}
				if len(got) != len(want) {
					t.Fatalf("%q: %d rows, want %d", src, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%q: row %d: axis %q != barrier %q", src, i, got[i], want[i])
					}
				}
				if tc.wantCut && scanned >= n/2 {
					t.Errorf("%q: examined %d of %d tuples; segment bounds did not cut the scan", src, scanned, n)
				}
			}
		})
	}
}
