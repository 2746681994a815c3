package query

import (
	"testing"
	"testing/quick"

	"fungusdb/internal/tuple"
)

// These tests assert the parsers are total: arbitrary input produces a
// value or an error, never a panic or a hang.

func TestQuickParseNeverPanics(t *testing.T) {
	f := func(src string) (ok bool) {
		defer func() {
			if recover() != nil {
				t.Logf("Parse(%q) panicked", src)
				ok = false
			}
		}()
		_, _ = Parse(src)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickParseSelectNeverPanics(t *testing.T) {
	f := func(src string) (ok bool) {
		defer func() {
			if recover() != nil {
				t.Logf("ParseSelect(%q) panicked", src)
				ok = false
			}
		}()
		_, _ = ParseSelect(src)
		_, _ = ParseSelect("SELECT " + src)
		_, _ = ParseSelect("SELECT * FROM t WHERE " + src)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Targeted grammar-shaped fragments: recombine real tokens into mostly
// invalid statements and require graceful errors.
func TestParserTokenSoup(t *testing.T) {
	frags := []string{
		"SELECT", "FROM", "WHERE", "GROUP", "BY", "ORDER", "LIMIT", "AND",
		"OR", "NOT", "IN", "LIKE", "BETWEEN", "COUNT", "(", ")", ",", "*",
		"+", "-", "/", "%", "=", "!=", "<=", ">=", "<", ">", "'str'",
		"ident", "_t", "_f", "42", "4.2", "TRUE", "FALSE", "AS", "CONSUME",
	}
	// Deterministic pseudo-random walks through the fragment space.
	seed := uint64(1)
	next := func(n int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int(seed>>33) % n
	}
	for trial := 0; trial < 5000; trial++ {
		var src string
		for i, l := 0, 1+next(12); i < l; i++ {
			src += frags[next(len(frags))] + " "
		}
		func() {
			defer func() {
				if recover() != nil {
					t.Fatalf("panic on %q", src)
				}
			}()
			_, _ = Parse(src)
			_, _ = ParseSelect(src)
		}()
	}
}

// Property: a predicate that compiles against a schema either matches
// or errors on every tuple — Match itself never panics.
func TestQuickMatchTotal(t *testing.T) {
	schema := tuple.MustSchema(
		tuple.Column{Name: "s", Kind: tuple.KindString},
		tuple.Column{Name: "n", Kind: tuple.KindInt},
	)
	exprs := []string{
		"n > 0", "s LIKE '%x%'", "n IN (1, 2, 3)", "n BETWEEN -5 AND 5",
		"s = 'a' OR n % 2 = 0", "NOT (n < 0)", "_f > 0.5 AND _t < 100",
	}
	preds := make([]*Predicate, len(exprs))
	for i, e := range exprs {
		preds[i] = mustCompile(e, schema)
	}
	f := func(s string, n int64, pi uint8) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		tp := tuple.New(0, 0, []tuple.Value{tuple.String_(s), tuple.Int(n)})
		_, _ = matchRow(preds[int(pi)%len(preds)], &tp)
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
