package query

import (
	"testing"

	"fungusdb/internal/tuple"
)

// fuzzParseSeeds is the seed corpus FuzzParse and FuzzBatchProgram
// share.
var fuzzParseSeeds = []string{
	"",
	"a = 1",
	"temp > 30 AND device LIKE 'sensor-%'",
	"dwell NOT IN (1, 2, 3) OR NOT (x BETWEEN -1 AND 1e3)",
	"dwell > ? AND user = ?",
	"SELECT * FROM t",
	"SELECT CONSUME device, COUNT(*) AS n FROM t WHERE f > ? GROUP BY device ORDER BY n DESC LIMIT 10",
	"SELECT SUM(a + b * -c) FROM t WHERE s = 'it''s'",
	"count",
	"q:temp:0.95",
	"has:device:?",
	"top:device:5",
}

// FuzzParse is the native fuzz target over every parser entry point:
// the WHERE-expression grammar, the SELECT statement grammar and the
// ask-question grammar must be total — any input yields a value or an
// error, never a panic — and everything that parses must also survive
// compilation against a schema.
func FuzzParse(f *testing.F) {
	for _, seed := range fuzzParseSeeds {
		f.Add(seed)
	}
	schema := tuple.MustSchema(
		tuple.Column{Name: "device", Kind: tuple.KindString},
		tuple.Column{Name: "temp", Kind: tuple.KindFloat},
		tuple.Column{Name: "n", Kind: tuple.KindInt},
		tuple.Column{Name: "ok", Kind: tuple.KindBool},
	)
	f.Fuzz(func(t *testing.T, src string) {
		if e, err := Parse(src); err == nil && e == nil {
			t.Fatalf("Parse(%q) = nil, nil", src)
		}
		if stmt, err := ParseStatement(src); err == nil {
			// Whatever parses must compile or error cleanly, and a
			// compiled plan must bind-check without panicking.
			if plan, err := stmt.Plan(schema); err == nil {
				_ = plan.BindCheck(nil)
				_ = plan.Cols()
			}
		}
		if stmt, err := ParseAskStatement("c", src); err == nil {
			_, _ = stmt.Plan(schema)
		}
	})
}
