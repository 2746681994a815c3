package query

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fungusdb/internal/tuple"
)

// topkRun feeds rows to a fresh collector of plan src over matchSchema,
// in batches of at most tuple.BatchRows, every row selected, and returns
// its answer beside the reference evaluator's projection, stable sort and
// LIMIT over the same rows.
func topkRun(t *testing.T, src string, rows []tuple.Tuple) (got, want [][]tuple.Value) {
	t.Helper()
	stmt, err := ParseStatement(src)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := stmt.Plan(matchSchema)
	if err != nil {
		t.Fatal(err)
	}
	tk := plan.NewTopK()
	for lo := 0; lo < len(rows); lo += tuple.BatchRows {
		b := batchOf(matchSchema, rows[lo:min(lo+tuple.BatchRows, len(rows))])
		if err := tk.AddBatch(b, b.Live); err != nil {
			t.Fatal(err)
		}
	}
	if got, err = plan.MergeTopK([]*TopK{tk}); err != nil {
		t.Fatal(err)
	}
	g, err := plan.reference(rows, nil)
	if err != nil {
		t.Fatal(err)
	}
	return got, g.Rows
}

func sameValues(a, b [][]tuple.Value) bool {
	return fmt.Sprint(a) == fmt.Sprint(b)
}

// TestTopKKeepsBest: a collector keeps exactly the best k rows, in the
// barrier's order, whatever k and however many rows it is offered —
// duplicates likely, ties broken by ID — with a typed key (a numeric
// first ORDER BY column) and without one.
func TestTopKKeepsBest(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, k := range []int{1, 3, 10, 64} {
		for _, n := range []int{0, 1, k, 3 * k, 1000, 2500} {
			rows := make([]tuple.Tuple, n)
			for i := range rows {
				rows[i] = tuple.New(tuple.ID(i), 0, []tuple.Value{
					tuple.Int(int64(rng.Intn(200))), tuple.Float(float64(rng.Intn(50)) / 2),
					tuple.String_(fmt.Sprintf("n%d", rng.Intn(30))), tuple.Bool(rng.Intn(2) == 0)})
			}
			for _, order := range []string{"k", "v DESC", "name", "k DESC, name", "v, ok DESC", "_id DESC"} {
				src := fmt.Sprintf("SELECT k, v, name, ok, _id FROM t ORDER BY %s LIMIT %d", order, k)
				if got, want := topkRun(t, src, rows); !sameValues(got, want) {
					t.Fatalf("%q over %d rows: kept %v, want %v", src, n, got, want)
				}
			}
		}
	}
}

// TestNewTopKRejectsNonPositiveLimit: a collector of nothing is a
// routing bug, not a state.
func TestNewTopKRejectsNonPositiveLimit(t *testing.T) {
	for _, src := range []string{"SELECT k FROM t ORDER BY k", "SELECT k FROM t LIMIT 3"} {
		stmt, err := ParseStatement(src)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := stmt.Plan(matchSchema)
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%q: NewTopK did not panic", src)
				}
			}()
			plan.NewTopK()
		}()
	}
}

// TestTopKTypedKeyMatchesRowOrder: the heap's typed key — a numeric
// first column's float image, then the ID, or the next keys on a tie —
// keeps the rows the full row comparison keeps, where the first key's
// images tie (INT 2^53 beside 2^53+1, FLOAT 0 beside -0) or nearly so.
// The computed plans order by an expression the heap cannot key on.
func TestTopKTypedKeyMatchesRowOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ks := []int64{1 << 53, 1<<53 + 1, 1<<53 - 1, 1<<53 + 2, -(1 << 53), 0}
	vs := []float64{0, math.Copysign(0, -1), 1 << 53, 1<<53 + 2, 0.5, -0.5}
	rows := make([]tuple.Tuple, 500)
	for i := range rows {
		rows[i] = tuple.New(tuple.ID(i), 0, []tuple.Value{
			tuple.Int(ks[rng.Intn(len(ks))]), tuple.Float(vs[rng.Intn(len(vs))]),
			tuple.String_(fmt.Sprintf("n%d", rng.Intn(4))), tuple.Bool(false)})
	}
	for _, pair := range [][2]string{
		{"SELECT k, name, _id FROM t ORDER BY k DESC LIMIT 8", "SELECT k + 0 AS k, name, _id FROM t ORDER BY k DESC LIMIT 8"},
		{"SELECT k, name, _id FROM t ORDER BY k, name DESC LIMIT 8", "SELECT k * 1 AS k, name, _id FROM t ORDER BY k, name DESC LIMIT 8"},
		{"SELECT v, name, _id FROM t ORDER BY v LIMIT 8", "SELECT v + 0.0 AS v, name, _id FROM t ORDER BY v LIMIT 8"},
		{"SELECT v, k, _id FROM t ORDER BY v DESC, k LIMIT 30", "SELECT v * 1.0 AS v, k, _id FROM t ORDER BY v DESC, k LIMIT 30"},
	} {
		typed, want := topkRun(t, pair[0], rows)
		row, _ := topkRun(t, pair[1], rows)
		if !sameValues(typed, want) || len(row) != len(typed) {
			t.Fatalf("%q: typed key kept %v, row order %v, reference %v", pair[0], typed, row, want)
		}
		for i := range typed {
			if fmt.Sprint(typed[i][1:]) != fmt.Sprint(row[i][1:]) {
				t.Errorf("%q: row %d: typed key %v, row order %v", pair[0], i, typed[i], row[i])
			}
		}
	}
}
