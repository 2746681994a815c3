package query

import (
	"fmt"
	"math"
	"testing"

	"fungusdb/internal/clock"
	"fungusdb/internal/tuple"
)

var matchSchema = tuple.MustSchema(
	tuple.Column{Name: "k", Kind: tuple.KindInt},
	tuple.Column{Name: "v", Kind: tuple.KindFloat},
	tuple.Column{Name: "name", Kind: tuple.KindString},
	tuple.Column{Name: "ok", Kind: tuple.KindBool},
)

func matchTuples() []tuple.Tuple {
	var out []tuple.Tuple
	names := []string{"alpha", "beta", "gamma", "", "a%b_c"}
	for i := 0; i < 25; i++ {
		out = append(out, tuple.Tuple{
			ID: tuple.ID(i),
			T:  clock.Tick(i / 5),
			F:  tuple.Freshness(1.0 - float64(i)*0.03),
			Attrs: []tuple.Value{
				tuple.Int(int64(i - 5)),
				tuple.Float(float64(i) * 1.5),
				tuple.String_(names[i%len(names)]),
				tuple.Bool(i%3 == 0),
			},
		})
	}
	return out
}

// matchRow evaluates a predicate for one tuple the way the engine's
// row-at-a-time callers do.
func matchRow(p *Predicate, tp *tuple.Tuple) (bool, error) {
	return p.NewRowMatcher().Match(tp)
}

// interpMatch is the reference: the expression tree walked through
// Expr.Eval with a TupleEnv.
func interpMatch(e Expr, tp *tuple.Tuple) (bool, error) {
	v, err := e.Eval(TupleEnv{Schema: matchSchema, Tuple: tp})
	if err != nil {
		return false, err
	}
	if v.Kind() != tuple.KindBool {
		return false, fmt.Errorf("query: predicate yields %s, want BOOL", v.Kind())
	}
	return v.AsBool(), nil
}

// matchCorpus is every expression shape with a kernel, every shape that
// falls to an interpreted leaf, and the error paths whose messages must
// match the interpreter exactly.
var matchCorpus = []string{
	"",
	"true",
	"false",
	"k > 3",
	"k >= 3 AND k <= 10",
	"3 < k",
	"3.5 >= v",
	"v = 7.5",
	"v != 7.5",
	"v < 1e308",
	"k = v",
	"v = k",
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
	"v IN (1.5, 3)",
	"name IN (\"alpha\", \"gamma\")",
	"name NOT IN (\"alpha\")",
	"k IN (v, 3)",
	"k BETWEEN 2 AND 8",
	"k + 1 > v - 0.5",
	"k * 2 = 4",
	"k % 3 = 0",
	"-k > 2",
	"_t >= 2",
	"_f < 0.5",
	"_id BETWEEN 5 AND 9",
	"_id % 2 = 0 AND v > 1.0",
	"(k > 0 OR ok) AND NOT (name = \"beta\")",
	"k % 3 = 0 AND name LIKE \"%a\"",
	"k % 3 = 0 OR v > 50.0",
	"NOT (k % 2 = 0)",
	// Error paths: type mismatches surface per row with pinned text.
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
	"name + name = \"x\"",
	"v > 0.0 AND name > 3",
	"k",
	"k + 1",
	"name",
}

// vecBatch hand-builds one column batch the way a hollowed, compacted
// segment presents itself: two bitmap words, dead rows (including the
// first and the last), NaN and infinite floats, and a dictionary whose
// entries repeat across rows. It returns the batch and its rows decoded
// (dead ones included) for the reference evaluation.
func vecBatch() (*tuple.Batch, []tuple.Tuple) {
	const n = 70
	dict := []string{"alpha", "beta", "gamma", "", "a%b_c"}
	floats := []float64{0, 1.5, -2.25, math.NaN(), 7.5, math.Inf(1), 50.5, math.Inf(-1), 1e308, math.Copysign(0, -1)}
	b := &tuple.Batch{
		N:    n,
		IDs:  make([]tuple.ID, n),
		Ts:   make([]int64, n),
		Fs:   make([]float64, n),
		Inf:  make([]bool, n),
		Live: make([]uint64, 2),
		Seg:  1,
		Cols: []tuple.ColView{
			{Kind: tuple.KindInt, Ints: make([]int64, n)},
			{Kind: tuple.KindFloat, Floats: make([]float64, n)},
			{Kind: tuple.KindString, Codes: make([]uint32, n), Dict: dict},
			{Kind: tuple.KindBool, Bools: make([]bool, n)},
		},
	}
	for j := 0; j < n; j++ {
		b.IDs[j] = tuple.ID(3 * j)
		b.Ts[j] = int64(j / 9)
		b.Fs[j] = 1 - float64(j)/100
		b.Inf[j] = j%11 == 0
		b.Cols[0].Ints[j] = int64(j%13 - 4)
		b.Cols[1].Floats[j] = floats[j%len(floats)]
		b.Cols[2].Codes[j] = uint32(j * 7 % len(dict))
		b.Cols[3].Bools[j] = j%3 == 0
		if j != 0 && j != n-1 && j%5 != 2 {
			b.Live[j>>6] |= 1 << uint(j&63)
		}
	}
	b.Alive = tuple.PopCount(b.Live)
	rows := make([]tuple.Tuple, n)
	for j := range rows {
		rows[j] = b.Row(j)
	}
	return b, rows
}

// checkBatchProgram asserts the batch program of e selects the same
// rows, stops at the same first erroring row and reports the same error
// text as the interpreter run row by row — both over a whole batch and
// through the one-row adapter.
func checkBatchProgram(t *testing.T, e Expr) {
	t.Helper()
	b, rows := vecBatch()
	want := make([]uint64, len(b.Live))
	wantRow, wantErr := b.N, error(nil)
	for j := 0; j < b.N && wantErr == nil; j++ {
		if b.Live[j>>6]&(1<<uint(j&63)) == 0 {
			continue
		}
		ok, err := interpMatch(e, &rows[j])
		if err != nil {
			wantRow, wantErr = j, err
		} else if ok {
			want[j>>6] |= 1 << uint(j&63)
		}
	}

	prog := compileVecMatch(e, matchSchema)
	got, gotRow, gotErr := newBatchMatcher(prog).Match(b)
	if gotRow != wantRow {
		t.Errorf("%s: first erroring row %d, interpreter %d", e, gotRow, wantRow)
	}
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Errorf("%s: error\n  program:     %v\n  interpreter: %v", e, gotErr, wantErr)
	}
	for w := range want {
		if got[w] != want[w] {
			t.Errorf("%s: selection word %d = %064b, interpreter %064b", e, w, got[w], want[w])
		}
	}

	rm := newRowMatcher(prog)
	for j := range rows {
		wantOK, wantErr := interpMatch(e, &rows[j])
		gotOK, gotErr := rm.Match(&rows[j])
		if gotOK != wantOK || (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Errorf("%s: row matcher on row %d = (%v, %v), interpreter (%v, %v)", e, j, gotOK, gotErr, wantOK, wantErr)
		}
	}
}

// fuzzParams binds the placeholders of a fuzzed statement: one value of
// every kind, NaN included, cycling.
var fuzzParams = []tuple.Value{
	tuple.Int(3), tuple.String_("beta"), tuple.Float(7.5), tuple.Bool(true), tuple.Float(math.NaN()),
}

// FuzzBatchProgram is the differential check of the engine's one WHERE
// evaluator against the tree interpreter: any WHERE clause that parses
// (bare, or inside a statement, placeholders bound) and resolves
// against matchSchema must select the same rows of vecBatch, stop at
// the same first erroring row and report the same error text.
func FuzzBatchProgram(f *testing.F) {
	for _, seed := range fuzzParseSeeds {
		f.Add(seed)
	}
	for _, seed := range matchCorpus {
		f.Add(seed)
	}
	f.Add("SELECT k FROM t WHERE k >= ? AND name = ? OR v < ?")
	f.Fuzz(func(t *testing.T, src string) {
		e, err := Parse(src)
		if err != nil {
			stmt, err := ParseStatement(src)
			if err != nil || stmt.Select() == nil || stmt.Select().Where == nil {
				return
			}
			params := make([]tuple.Value, stmt.NumParams())
			for i := range params {
				params[i] = fuzzParams[i%len(fuzzParams)]
			}
			e = bindExpr(stmt.Select().Where, params)
		}
		if checkCols(e, matchSchema) != nil {
			return
		}
		checkBatchProgram(t, e)
	})
}

func TestBatchProgramUnknownColumn(t *testing.T) {
	// Schema checks normally reject unknown columns at compile time;
	// the program must still reproduce the interpreter's error if
	// handed one (predicates built via FromExpr on unchecked trees).
	checkBatchProgram(t, Bin{Op: OpGt, L: Col{Name: "nosuch"}, R: Lit{V: tuple.Int(1)}})
}

// TestBatchProgramUnboundPlaceholder: a plan that still carries a
// placeholder evaluates to the interpreter's not-bound error, row by
// row, instead of having no program at all.
func TestBatchProgramUnboundPlaceholder(t *testing.T) {
	stmt, err := ParseStatement("SELECT k FROM t WHERE k > ?")
	if err != nil {
		t.Fatal(err)
	}
	checkBatchProgram(t, stmt.Select().Where)
}

// BenchmarkRowMatcher reports the one-row adapter's per-row cost beside
// the interpreter's.
func BenchmarkRowMatcher(b *testing.B) {
	tuples := matchTuples()
	for _, src := range []string{"v < 50.0", "ok AND v > 30.0 AND name LIKE \"a%\""} {
		pred := MustCompile(src, matchSchema)
		b.Run("onerow/"+src, func(b *testing.B) {
			rm := pred.NewRowMatcher()
			for i := 0; i < b.N; i++ {
				_, _ = rm.Match(&tuples[i%len(tuples)])
			}
		})
		b.Run("interp/"+src, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _ = interpMatch(pred.Expr(), &tuples[i%len(tuples)])
			}
		})
	}
}
