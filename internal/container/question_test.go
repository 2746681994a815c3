package container

import (
	"errors"
	"math/rand"
	"testing"

	"fungusdb/internal/tuple"
)

var clickSchema = tuple.MustSchema(
	tuple.Column{Name: "user", Kind: tuple.KindString},
	tuple.Column{Name: "url", Kind: tuple.KindString},
	tuple.Column{Name: "dwell", Kind: tuple.KindInt},
)

func TestParseQuestion(t *testing.T) {
	good := []struct {
		q    string
		want Question
	}{
		{"count", Question{Op: OpCount}},
		{"ndv:user", Question{Op: OpNDV, Col: "user"}},
		{"mean:dwell", Question{Op: OpMean, Col: "dwell"}},
		{"sum:dwell", Question{Op: OpSum, Col: "dwell"}},
		{"q:dwell:0.5", Question{Op: OpQuantile, Col: "dwell", P: 0.5}},
		{"q:dwell:1", Question{Op: OpQuantile, Col: "dwell", P: 1}},
		{"top:url", Question{Op: OpTop, Col: "url", K: 10}},
		{"top:url:3", Question{Op: OpTop, Col: "url", K: 3}},
		{"has:user:alice", Question{Op: OpHas, Col: "user", Value: tuple.String_("alice")}},
		{"has:dwell:42", Question{Op: OpHas, Col: "dwell", Value: tuple.Int(42)}},
		// `?` is a value like any other, not a placeholder.
		{"has:user:?", Question{Op: OpHas, Col: "user", Value: tuple.String_("?")}},
		// The digest, not the parser, says a STRING column has no mean.
		{"mean:user", Question{Op: OpMean, Col: "user"}},
	}
	for _, c := range good {
		got, err := ParseQuestion(clickSchema, c.q)
		if err != nil {
			t.Errorf("ParseQuestion(%q): %v", c.q, err)
			continue
		}
		if got.Op != c.want.Op || got.Col != c.want.Col || got.P != c.want.P || got.K != c.want.K ||
			got.Value.Kind() != c.want.Value.Kind() || (got.Value.IsValid() && !got.Value.Equal(c.want.Value)) {
			t.Errorf("ParseQuestion(%q) = %+v, want %+v", c.q, got, c.want)
		}
	}
	bad := []string{
		"", "count:extra", "ndv", "ndv:", "q:dwell", "q:dwell:2.0", "q:dwell:-0.1", "q:dwell:x",
		"q:dwell:NaN", "top:url:0", "top:url:x", "top:url:3:4", "has:user", "unknown",
		"mean:dwell:extra",
		// Unknown columns fail at parse, before any container is looked up.
		"ndv:nosuch", "q:nosuch:0.5", "has:nosuch:1",
		// A has operand must parse in its column's kind.
		"has:dwell:notanint", "has:dwell:?",
	}
	for _, q := range bad {
		if got, err := ParseQuestion(clickSchema, q); err == nil {
			t.Errorf("ParseQuestion(%q) = %+v, want an error", q, got)
		}
	}
}

func TestShelfAsk(t *testing.T) {
	s := NewShelf(digSchema, DefaultDigestConfig(), rand.New(rand.NewSource(4)))
	var tuples []tuple.Tuple
	for i := 0; i < 12; i++ {
		tuples = append(tuples, mk(uint64(i), []string{"a", "a", "a", "b", "b", "c"}[i%6], int64(i)))
	}
	if err := s.Absorb("c", 1, 4, tuples); err != nil {
		t.Fatal(err)
	}
	ask := func(q string) Answer {
		t.Helper()
		qn, err := ParseQuestion(digSchema, q)
		if err != nil {
			t.Fatal(err)
		}
		a, err := s.Ask("c", qn)
		if err != nil {
			t.Fatalf("Ask(%q): %v", q, err)
		}
		if a.Op != qn.Op {
			t.Fatalf("Ask(%q) answered op %d", q, a.Op)
		}
		return a
	}
	for q, want := range map[string]float64{"count": 12, "ndv:device": 3, "sum:n": 66, "mean:temp": 5.5} {
		if got := ask(q).Value; got != want {
			t.Errorf("Ask(%q) = %v, want %v", q, got, want)
		}
	}
	if got := ask("q:n:0.5").Value; got < 3 || got > 8 {
		t.Errorf("median n = %v", got)
	}
	if top := ask("top:device").Top; len(top) != 3 || top[0].Item != "a" || top[0].Count != 6 {
		t.Errorf("top:device = %+v", top)
	}
	if top := ask("top:device:1").Top; len(top) != 1 {
		t.Errorf("top:device:1 = %+v", top)
	}
	if !ask("has:device:b").Has || ask("has:n:99").Has {
		t.Error("membership answers wrong")
	}

	// Asking touches the container.
	s.Tick()
	if f := s.Get("c").Freshness(); f == tuple.Full {
		t.Fatal("container did not decay")
	}
	ask("count")
	if f := s.Get("c").Freshness(); f != tuple.Full {
		t.Errorf("freshness after ask = %v, want full", f)
	}

	// The digest refuses the mean of a STRING column; a missing
	// container is ErrNoContainer.
	mean, _ := ParseQuestion(digSchema, "mean:device")
	if _, err := s.Ask("c", mean); err == nil || errors.Is(err, ErrNoContainer) {
		t.Errorf("mean:device = %v, want a digest error", err)
	}
	count, _ := ParseQuestion(digSchema, "count")
	if _, err := s.Ask("nosuch", count); !errors.Is(err, ErrNoContainer) {
		t.Errorf("missing container = %v, want ErrNoContainer", err)
	}
}

// FuzzQuestion holds the question parser total: any input parses or
// fails cleanly, and whatever parses names a column of the schema (but
// count) and is answered from a digest without a panic.
func FuzzQuestion(f *testing.F) {
	for _, seed := range []string{
		"count", "ndv:device", "mean:temp", "sum:n", "q:temp:0.95", "q:n:NaN",
		"top:device", "top:device:5", "has:device:?", "has:ok:true", "has:n:-3",
	} {
		f.Add(seed)
	}
	s := NewShelf(digSchema, CompactDigestConfig(), rand.New(rand.NewSource(5)))
	if err := s.Absorb("c", 1, 0, []tuple.Tuple{mk(1, "a", 1), mk(2, "b", 2)}); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := ParseQuestion(digSchema, src)
		if err != nil {
			return
		}
		if q.Op != OpCount && digSchema.Index(q.Col) < 0 {
			t.Fatalf("ParseQuestion(%q) accepted column %q", src, q.Col)
		}
		if q.Op == OpQuantile && !(q.P >= 0 && q.P <= 1) {
			t.Fatalf("ParseQuestion(%q) accepted quantile %v", src, q.P)
		}
		if q.Op == OpHas && q.Value.Kind() != digSchema.Column(digSchema.Index(q.Col)).Kind {
			t.Fatalf("ParseQuestion(%q) has operand %v", src, q.Value)
		}
		_, _ = s.Ask("c", q)
	})
}
