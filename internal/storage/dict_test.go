package storage

import (
	"fmt"
	"testing"

	"fungusdb/internal/tuple"
)

// TestShardDictBoundedUnderChurn: a STRING column whose every row is a
// new string, inserted under steady rot, keeps a shard dictionary no
// larger than what its live segments hold. Each round appends one
// segment's worth of unique strings beside a low-cardinality column,
// evicts the oldest rows so that about four segments stay live, and
// every third round compacts. Without releasing the codes of dropped and
// compacted segments the dictionary would hold every string ever
// inserted.
func TestShardDictBoundedUnderChurn(t *testing.T) {
	schema := tuple.MustSchema(
		tuple.Column{Name: "u", Kind: tuple.KindString},
		tuple.Column{Name: "dev", Kind: tuple.KindString},
	)
	const seg, window, rounds = 64, 256, 200
	s := New(schema, WithSegmentSize(seg), WithStride(2, 1))
	oldest := tuple.ID(1)
	for r := 0; r < rounds; r++ {
		for i := 0; i < seg; i++ {
			n := r*seg + i
			if _, err := s.Insert(0, []tuple.Value{tuple.String_(fmt.Sprintf("u-%d", n)), tuple.String_(fmt.Sprintf("d-%d", n%7))}); err != nil {
				t.Fatal(err)
			}
		}
		for ; s.Len() > window; oldest += 2 {
			// Oldest first, so the oldest segment is often part-evicted
			// when a compaction runs.
			if err := s.Evict(oldest); err != nil {
				t.Fatal(err)
			}
		}
		if r%3 == 2 {
			s.Compact()
		}
		if err := s.AuditZones(); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		for c, d := range s.dicts {
			held := 0
			for _, sg := range s.segs[s.first:] {
				if sg != nil {
					held += len(sg.cols[c].dict)
				}
			}
			if len(d.index) > held || len(d.entries) > 2*held {
				t.Fatalf("round %d, column %d: %d strings in %d codes, live segments hold %d", r, c, len(d.index), len(d.entries), held)
			}
		}
	}
	if d := s.dicts[1]; len(d.index) != 7 {
		t.Errorf("low-cardinality column: %d shard codes, want 7", len(d.index))
	}
}

// TestShardCodesNameOneString: every segment maps a string to the same
// shard code and batches carry the mapping; a string whose last segment
// is dropped is forgotten, and its code goes to the next new string.
func TestShardCodesNameOneString(t *testing.T) {
	schema := tuple.MustSchema(tuple.Column{Name: "s", Kind: tuple.KindString})
	s := New(schema, WithSegmentSize(4))
	insert := func(vals ...string) {
		t.Helper()
		for _, v := range vals {
			if _, err := s.Insert(0, []tuple.Value{tuple.String_(v)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	insert("a", "b", "a", "c", "x", "x", "c", "a", "d", "b")
	codes := func() map[string]uint32 {
		t.Helper()
		out := map[string]uint32{}
		s.ScanBatches(nil, func(b *tuple.Batch) bool {
			cv := &b.Cols[0]
			if len(cv.Shard) != len(cv.Dict) {
				t.Fatalf("%d shard codes for %d strings", len(cv.Shard), len(cv.Dict))
			}
			for l, sc := range cv.Shard {
				if got, ok := out[cv.Dict[l]]; ok && got != sc {
					t.Errorf("%q has shard codes %d and %d", cv.Dict[l], got, sc)
				}
				out[cv.Dict[l]] = sc
			}
			return true
		})
		return out
	}
	before := codes()
	if len(before) != 5 {
		t.Fatalf("%d strings scanned, want 5", len(before))
	}
	for id := tuple.ID(4); id < 8; id++ { // the whole middle segment
		if err := s.Evict(id); err != nil {
			t.Fatal(err)
		}
	}
	d := s.dicts[0]
	if _, ok := d.index["x"]; ok || len(d.index) != 4 {
		t.Errorf(`after the drop: %d strings indexed, "x" among them: %v`, len(d.index), ok)
	}
	insert("y", "a")
	after := codes()
	if after["y"] != before["x"] || after["a"] != before["a"] {
		t.Errorf("codes before %v, after %v: want y on x's code and a unchanged", before, after)
	}
	if err := s.AuditZones(); err != nil {
		t.Fatal(err)
	}
}
