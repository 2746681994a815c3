package query

import (
	"fmt"
	"testing"

	"fungusdb/internal/tuple"
)

// TestReleasedBlockPinsNoStrings: a block released to the pool holds no
// string header and no boxed value, whatever it carried — typed STRING
// columns, computed targets, or a poisoned row past which the bare
// columns had already been copied — so a pooled block keeps no string of
// an evicted segment alive.
func TestReleasedBlockPinsNoStrings(t *testing.T) {
	rows := make([]tuple.Tuple, 300)
	for i := range rows {
		rows[i] = tuple.New(tuple.ID(i), 0, []tuple.Value{
			tuple.Int(int64(i)), tuple.Float(float64(i)), tuple.String_(fmt.Sprintf("name-%d", i)), tuple.Bool(i%2 == 0),
		})
	}
	batch := new(tuple.Batch)
	batch.Fill(matchSchema, rows)
	sel := make([]int, 200)
	for j := range sel {
		sel[j] = j
	}
	for _, src := range []string{
		"SELECT name, k, name AS again, ok FROM t",
		"SELECT name, name + \"!\", v FROM t",
		"SELECT name, name + \"!\", 100 / (k - 150) FROM t",
	} {
		stmt, err := ParseStatement(src)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := stmt.Plan(matchSchema)
		if err != nil {
			t.Fatal(err)
		}
		w := plan.NewBlockWriter(nil, 0)
		took := w.AddBatch(batch, sel)
		b := w.Take()
		if w.Failed() || b.Err != nil {
			if took != 151 || len(b.IDs) != 151 {
				t.Fatalf("%s: poisoned after %d rows (%d IDs), want 151", src, took, len(b.IDs))
			}
		} else if took != len(sel) {
			t.Fatalf("%s: took %d rows, want %d", src, took, len(sel))
		}
		if got := b.Cols[0].Strs[7]; got != "name-7" {
			t.Fatalf("%s: row 7 name %q", src, got)
		}
		b.Release()
		for i, s := range b.strs[:cap(b.strs)] {
			if s != "" {
				t.Fatalf("%s: released block keeps string %q at %d", src, s, i)
			}
		}
		for i, v := range b.vals[:cap(b.vals)] {
			if v != (tuple.Value{}) {
				t.Fatalf("%s: released block keeps value %v at %d", src, v, i)
			}
		}
	}
}
