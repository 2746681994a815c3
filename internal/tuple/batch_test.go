package tuple

import (
	"reflect"
	"testing"
)

// TestBatchFillInvertsReadRow: every row Fill lays out reads back through
// ReadRow as the tuple it came from, every row is live and nothing
// beyond, and a refill of the same batch — fewer rows, other strings —
// takes a fresh Seg tag.
func TestBatchFillInvertsReadRow(t *testing.T) {
	schema := MustSchema(
		Column{Name: "k", Kind: KindInt},
		Column{Name: "v", Kind: KindFloat},
		Column{Name: "s", Kind: KindString},
		Column{Name: "ok", Kind: KindBool},
	)
	rows := func(n int, prefix string) []Tuple {
		out := make([]Tuple, n)
		for j := range out {
			out[j] = Tuple{ID: ID(3 * j), T: 7, F: 0.5, Infected: j%4 == 0, Attrs: []Value{
				Int(int64(j - 60)), Float(float64(j) / 8), String_(prefix + string(rune('a'+j%5))), Bool(j%3 == 0),
			}}
		}
		return out
	}
	var b Batch
	var seen []uint64
	for _, want := range [][]Tuple{rows(130, "x"), rows(64, "y"), rows(1, "z"), rows(BatchRows, "w")} {
		b.Fill(schema, want)
		if b.N != len(want) || b.Alive != len(want) || PopCount(b.Live) != len(want) || len(b.Live) != (len(want)+63)/64 {
			t.Fatalf("%d rows: N=%d Alive=%d live bits %d over %d words", len(want), b.N, b.Alive, PopCount(b.Live), len(b.Live))
		}
		for _, tag := range seen {
			if b.Seg == tag {
				t.Fatalf("%d rows: Seg tag %d reused", len(want), tag)
			}
		}
		seen = append(seen, b.Seg)
		var got Tuple
		for j := range want {
			b.ReadRow(j, &got)
			if !reflect.DeepEqual(got, want[j]) {
				t.Fatalf("%d rows: row %d = %v, want %v", len(want), j, got, want[j])
			}
		}
	}
}
