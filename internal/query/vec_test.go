package query

import (
	"fmt"
	"math"
	"strings"
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

// mustCompile is Compile that fails loudly, for fixed test predicates.
func mustCompile(src string, schema *tuple.Schema) *Predicate {
	p, err := Compile(src, schema)
	if err != nil {
		panic(err)
	}
	return p
}

// matchRow evaluates a predicate for one tuple the way stream rules
// do: laid out as a batch, here of one row.
func matchRow(p *Predicate, tp *tuple.Tuple) (bool, error) { return matchProg(p.vec, tp) }

// matchProg evaluates a batch program for one tuple, laid out as a
// one-row batch.
func matchProg(prog *vecProg, tp *tuple.Tuple) (bool, error) {
	var b tuple.Batch
	b.Fill(prog.schema, []tuple.Tuple{*tp})
	sel, _, err := newBatchMatcher(prog).Match(&b)
	return sel[0]&1 != 0, err
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
	"_f <= 0.5",
	"k >= 8 OR k < -4",
	"NOT (k % 2 = 0)",
	"v < 1e308 AND k > -10",
	"NOT (k > 100) AND v > 1.0",
	"ok OR k < 100",
	"name != \"zeta\" AND NOT ok",
	"NOT (k / (k - 3) > 0 AND k > 100)",
	"NOT (v > 1.0 AND k > 100)",
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
	return b, batchRows(b)
}

// batchRows decodes every row of b, dead ones included.
func batchRows(b *tuple.Batch) []tuple.Tuple {
	rows := make([]tuple.Tuple, b.N)
	for j := range rows {
		b.ReadRow(j, &rows[j])
	}
	return rows
}

// vecBatchNext is the batch a scan hands over after vecBatch when it
// crosses into the next segment: later IDs, another liveness pattern,
// and the same strings under a dictionary in a different order — so a
// per-segment cache that survives the tag change puts rows in the wrong
// place.
func vecBatchNext() (*tuple.Batch, []tuple.Tuple) {
	b, _ := vecBatch()
	b.Seg = 2
	dict := b.Cols[2].Dict
	rev := make([]string, len(dict))
	for d, s := range dict {
		rev[len(dict)-1-d] = s
	}
	b.Cols[2].Dict = rev
	b.Live[0], b.Live[1] = 0, 0
	for j := 0; j < b.N; j++ {
		b.IDs[j] += 1000
		b.Cols[0].Ints[j] += 3
		b.Cols[2].Codes[j] = uint32(len(dict)-1) - b.Cols[2].Codes[j]
		if j%7 != 3 {
			b.Live[j>>6] |= 1 << uint(j&63)
		}
	}
	b.Alive = tuple.PopCount(b.Live)
	return b, batchRows(b)
}

// vecBatchLast is a third segment after vecBatchNext, planted with the
// cases where a fold's register or a top-k threshold carried over from
// the earlier batches must hold: INT 2^53+1 before 2^53 (and -(2^53+1)
// before -2^53) — one float image, so the first seen is the extreme —
// _f ties of +0 and -0 below every earlier _f, the first NaN of _f (row
// 46), and later, tying _t values.
func vecBatchLast() (*tuple.Batch, []tuple.Tuple) {
	b, _ := vecBatch()
	b.Seg = 3
	b.Live[0], b.Live[1] = 0, 0
	for j := 0; j < b.N; j++ {
		b.IDs[j] += 2000
		b.Ts[j] += 5
		b.Fs[j] = float64(j%7) / 4
		if j%14 == 7 {
			b.Fs[j] = math.Copysign(0, -1)
		}
		if j%4 != 1 {
			b.Live[j>>6] |= 1 << uint(j&63)
		}
	}
	b.Fs[46] = math.NaN()
	for j, k := range map[int]int64{2: 1<<53 + 1, 11: 1 << 53, 30: 1<<53 + 1, 3: -(1 << 53) - 1, 19: -(1 << 53), 60: 1 << 53} {
		b.Cols[0].Ints[j] = k
	}
	b.Alive = tuple.PopCount(b.Live)
	return b, batchRows(b)
}

// vecBatchClean is a fourth segment whose live rows hold no NaN and
// narrow values, so its exact zone decides whole nodes: k in [10, 14],
// v in [1.5, 4.5] with a NaN only in a dead row, names "alpha" and
// "beta", ok true.
func vecBatchClean() (*tuple.Batch, []tuple.Tuple) {
	b, _ := vecBatch()
	b.Seg = 4
	for j := 0; j < b.N; j++ {
		b.IDs[j] += 3000
		b.Ts[j] += 9
		b.Cols[0].Ints[j] = int64(10 + j%5)
		b.Cols[1].Floats[j] = 1.5 + float64(j%4)
		b.Cols[2].Codes[j] = uint32(j % 2)
		b.Cols[3].Bools[j] = true
	}
	b.Cols[1].Floats[2] = math.NaN() // dead
	return b, batchRows(b)
}

// batchZone is a ZoneView over one batch's live rows: the exact
// summary (a FLOAT column with a live NaN has no bounds, the bloom holds
// exactly the live strings), or a widened superset of it (looser
// bounds, a bloom that always says maybe).
type batchZone struct {
	cols  []zoneBounds
	t, id zoneBounds
	strs  []map[string]bool // nil: the bloom abstains
}

type zoneBounds struct {
	lo, hi tuple.Value
	ok     bool
}

// fold widens r to cover v; INT values order as int64, as storage's
// zone maps keep them, not by their float64 images.
func (r *zoneBounds) fold(v tuple.Value) {
	less := func(a, b tuple.Value) bool {
		if a.Kind() == tuple.KindInt {
			return a.AsInt() < b.AsInt()
		}
		c, _ := a.Compare(b)
		return c < 0
	}
	if !r.ok || less(v, r.lo) {
		r.lo = v
	}
	if !r.ok || less(r.hi, v) {
		r.hi = v
	}
	r.ok = true
}

func exactZone(b *tuple.Batch) *batchZone {
	z := &batchZone{cols: make([]zoneBounds, len(b.Cols)), strs: make([]map[string]bool, len(b.Cols))}
	nan := make([]bool, len(b.Cols))
	tuple.EachSet(b.Live, func(j int) bool {
		z.t.fold(tuple.Int(b.Ts[j]))
		z.id.fold(tuple.Int(int64(b.IDs[j])))
		for i := range b.Cols {
			v := b.Cols[i].Value(j)
			if v.Kind() == tuple.KindFloat && math.IsNaN(v.AsFloat()) {
				nan[i] = true
				continue
			}
			z.cols[i].fold(v)
			if v.Kind() == tuple.KindString {
				if z.strs[i] == nil {
					z.strs[i] = map[string]bool{}
				}
				z.strs[i][v.AsString()] = true
			}
		}
		return true
	})
	for i := range nan {
		if nan[i] {
			z.cols[i] = zoneBounds{}
		}
	}
	return z
}

// widened returns a superset of z: every range grows, the bloom
// abstains.
func (z *batchZone) widened() *batchZone {
	w := &batchZone{cols: make([]zoneBounds, len(z.cols)), t: widen(z.t), id: widen(z.id)}
	for i := range z.cols {
		w.cols[i] = widen(z.cols[i])
	}
	return w
}

func widen(r zoneBounds) zoneBounds {
	if !r.ok {
		return r
	}
	switch r.lo.Kind() {
	case tuple.KindInt:
		lo, hi := r.lo.AsInt(), r.hi.AsInt()
		if lo > math.MinInt64+3 {
			lo -= 3
		}
		if hi < math.MaxInt64-3 {
			hi += 3
		}
		r.lo, r.hi = tuple.Int(lo), tuple.Int(hi)
	case tuple.KindFloat:
		r.lo, r.hi = tuple.Float(r.lo.AsFloat()-1), tuple.Float(r.hi.AsFloat()+1)
	case tuple.KindString:
		r.lo, r.hi = tuple.String_(""), tuple.String_(r.hi.AsString()+"~")
	case tuple.KindBool:
		r.lo, r.hi = tuple.Bool(false), tuple.Bool(true)
	}
	return r
}

func (z *batchZone) Bounds(col int) (lo, hi tuple.Value, ok bool) {
	r := z.cols[col]
	return r.lo, r.hi, r.ok
}
func (z *batchZone) TickBounds() (lo, hi tuple.Value, ok bool) { return z.t.lo, z.t.hi, z.t.ok }
func (z *batchZone) IDBounds() (lo, hi tuple.Value, ok bool)   { return z.id.lo, z.id.hi, z.id.ok }
func (z *batchZone) MayContainString(col int, s string) bool {
	return z.strs == nil || z.strs[col][s]
}

// batchOf presents tuples of schema as one all-live column batch.
func batchOf(schema *tuple.Schema, rows []tuple.Tuple) *tuple.Batch {
	b := new(tuple.Batch)
	b.Fill(schema, rows)
	return b
}

// checkBatchProgram asserts the batch program of e selects the same
// rows, stops at the same first erroring row and reports the same error
// text as the interpreter run row by row — over two batches of
// different segments through one matcher, and on every row alone as a
// one-row batch. The selections then drive the late-materialising consumers
// (checkAnalytic).
func checkBatchProgram(t *testing.T, e Expr) {
	t.Helper()
	batches, decoded, sels := checkBatchProgramOver(t, e, []func() (*tuple.Batch, []tuple.Tuple){vecBatch, vecBatchNext, vecBatchLast, vecBatchClean})
	checkAnalytic(t, batches, decoded, sels)
}

// checkBatchProgramOver is checkBatchProgram's check of the program
// alone, over the given batches run in order through one matcher; the
// one-row check takes the rows of the first. A second matcher is armed
// with each batch's exact zone and then its widened one: where the
// root verdict does not skip, it must select what the matcher without
// verdicts selects and stop at the same row with the same error; where
// it skips, that matcher must have selected nothing. It returns the
// batches, their decoded rows and the interpreter's selections.
func checkBatchProgramOver(t *testing.T, e Expr, gens []func() (*tuple.Batch, []tuple.Tuple)) (batches []*tuple.Batch, decoded [][]tuple.Tuple, sels [][]uint64) {
	t.Helper()
	prog := compileVecMatch(e, matchSchema)
	m, mz := newBatchMatcher(prog), newBatchMatcher(prog)
	for _, next := range gens {
		b, rows := next()
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

		got, gotRow, gotErr := m.Match(b)
		if gotRow != wantRow {
			t.Errorf("%s: segment %d: first erroring row %d, interpreter %d", e, b.Seg, gotRow, wantRow)
		}
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Errorf("%s: segment %d: error\n  program:     %v\n  interpreter: %v", e, b.Seg, gotErr, wantErr)
		}
		for w := range want {
			if got[w] != want[w] {
				t.Errorf("%s: segment %d: selection word %d = %064b, interpreter %064b", e, b.Seg, w, got[w], want[w])
			}
		}
		exact := exactZone(b)
		for k, z := range []*batchZone{exact, exact.widened()} {
			name := [2]string{"exact", "widened"}[k]
			if mz.Zone(z) {
				if j := firstSet(got); j >= 0 {
					t.Errorf("%s: segment %d: the %s zone skips it, but row %d matches", e, b.Seg, name, j)
				}
				continue
			}
			zgot, zrow, zerr := mz.Match(b)
			if zrow != gotRow || (zerr == nil) != (gotErr == nil) || (zerr != nil && zerr.Error() != gotErr.Error()) {
				t.Errorf("%s: segment %d: with the %s zone, error row %d (%v), without %d (%v)", e, b.Seg, name, zrow, zerr, gotRow, gotErr)
			}
			for w := range got {
				if zgot[w] != got[w] {
					t.Errorf("%s: segment %d: with the %s zone, selection word %d = %064b, without %064b", e, b.Seg, name, w, zgot[w], got[w])
					break
				}
			}
		}
		batches, decoded, sels = append(batches, b), append(decoded, rows), append(sels, want)
	}

	rows := decoded[0]
	for j := range rows {
		wantOK, wantErr := interpMatch(e, &rows[j])
		gotOK, gotErr := matchProg(prog, &rows[j])
		if gotOK != wantOK || (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Errorf("%s: one-row batch of row %d = (%v, %v), interpreter (%v, %v)", e, j, gotOK, gotErr, wantOK, wantErr)
		}
	}
	return batches, decoded, sels
}

// analyticShapes are the statements checkAnalytic folds a selection
// through: grouped by a STRING (dictionary codes), by a FLOAT with NaN
// and -0 beside a BOOL, ungrouped with a computed argument, extremes
// that meet a NaN, two targets failing on different rows and on the
// same row; ungrouped folds of every bare numeric column, the system
// columns included, and of STRING and BOOL extremes; top-k over a
// STRING key with ID ties, over a FLOAT key with NaN, over every
// numeric column as the first key in both directions (ties at the
// threshold, ±0, a later NaN, 2^53 beside 2^53+1), and over a computed
// target.
var analyticShapes = []string{
	"SELECT name, COUNT(*) AS n, SUM(v) AS s, AVG(k) AS a, MIN(k) AS lo, MAX(_id) AS hi FROM t GROUP BY name",
	"SELECT v, ok, COUNT(*) AS n, MIN(name) AS first, MAX(_t) AS t FROM t GROUP BY v, ok ORDER BY n DESC, first, ok",
	"SELECT _t, COUNT(v) AS n, MAX(ok) AS any FROM t GROUP BY _t",
	"SELECT COUNT(*) AS n, SUM(k * 2) AS s, MIN(name + \"!\") AS m, MIN(_f) AS f FROM t",
	"SELECT name, MIN(v) AS lo FROM t GROUP BY name",
	"SELECT MAX(v) AS hi, SUM(name) AS s FROM t",
	"SELECT SUM(name) AS s, SUM(ok) AS o FROM t GROUP BY k",
	"SELECT SUM(100 / k) AS q, MAX(v) AS hi FROM t GROUP BY ok",
	"SELECT COUNT(k) AS n, SUM(k) AS s, AVG(k) AS a, MIN(k) AS lo, MAX(k) AS hi FROM t",
	"SELECT COUNT(v) AS n, SUM(v) AS s, AVG(v) AS a, MIN(v) AS lo, MAX(v) AS hi FROM t",
	"SELECT SUM(_t) AS s, MIN(_t) AS lo, MAX(_t) AS hi, AVG(_f) AS a, MIN(_f) AS flo, MAX(_f) AS fhi FROM t",
	"SELECT COUNT(_id) AS n, SUM(_id) AS s, AVG(_id) AS a, MIN(_id) AS lo, MAX(_id) AS hi FROM t",
	"SELECT MIN(name) AS lo, MAX(ok) AS any, COUNT(name) AS n, MAX(k) AS hi FROM t",
	"SELECT k, name, _id FROM t ORDER BY name DESC LIMIT 5",
	"SELECT name, ok, _t FROM t ORDER BY ok, _t DESC, name LIMIT 40",
	"SELECT v, k FROM t ORDER BY v DESC, k LIMIT 4",
	"SELECT v, _id FROM t ORDER BY v LIMIT 5",
	"SELECT k, _id FROM t ORDER BY k DESC LIMIT 7",
	"SELECT k, name FROM t ORDER BY k, name DESC LIMIT 12",
	"SELECT _t, name FROM t ORDER BY _t DESC, name LIMIT 9",
	"SELECT _t, k FROM t ORDER BY _t LIMIT 20",
	"SELECT _f, k FROM t ORDER BY _f LIMIT 6",
	"SELECT _f FROM t ORDER BY _f DESC LIMIT 3",
	"SELECT _id, v FROM t ORDER BY _id DESC LIMIT 3",
	"SELECT _id FROM t ORDER BY _id LIMIT 4",
	"SELECT k * 2 AS kk, name FROM t ORDER BY name, kk DESC LIMIT 6",
	"SELECT 100 / k AS q FROM t ORDER BY q LIMIT 3",
}

var analyticPlans []*Plan

// checkAnalytic feeds the selections of a multi-segment scan to the
// batch consumers — Aggregator.FeedBatch and TopK.AddBatch — and to
// their row-at-a-time references (Aggregator.Feed, and a projection,
// stable sort and LIMIT over the decoded rows): same grid, same order,
// or the same error text.
func checkAnalytic(t *testing.T, batches []*tuple.Batch, decoded [][]tuple.Tuple, sels [][]uint64) {
	t.Helper()
	if analyticPlans == nil {
		for _, src := range analyticShapes {
			stmt, err := ParseStatement(src)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := stmt.Plan(matchSchema)
			if err != nil {
				t.Fatal(err)
			}
			analyticPlans = append(analyticPlans, plan)
		}
	}
	var selected []tuple.Tuple
	for i, sel := range sels {
		tuple.EachSet(sel, func(j int) bool {
			selected = append(selected, decoded[i][j])
			return true
		})
	}
	for _, plan := range analyticPlans {
		want, wantErr := plan.reference(selected, nil)
		var got *Grid
		var gotErr error
		if plan.Aggregated() {
			agg := plan.NewAggregator(nil)
			for i := range batches {
				if gotErr = agg.FeedBatch(batches[i], sels[i]); gotErr != nil {
					break
				}
			}
			if gotErr == nil {
				got, gotErr = agg.Grid()
			}
		} else {
			tk := plan.NewTopK()
			for i := range batches {
				if gotErr = tk.AddBatch(batches[i], sels[i]); gotErr != nil {
					break
				}
			}
			if gotErr == nil {
				gotErr = tk.Err()
			}
			if gotErr == nil {
				got = &Grid{}
				got.Rows, gotErr = plan.MergeTopK([]*TopK{tk})
			}
		}
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Errorf("%s over %d selected rows: error\n  batch:     %v\n  reference: %v", plan.Source(), len(selected), gotErr, wantErr)
			continue
		}
		if gotErr != nil {
			continue
		}
		if len(got.Rows) != len(want.Rows) {
			t.Errorf("%s over %d selected rows: %d rows, reference %d", plan.Source(), len(selected), len(got.Rows), len(want.Rows))
			continue
		}
		for r := range want.Rows {
			for c := range want.Rows[r] {
				if g, w := got.Rows[r][c].String(), want.Rows[r][c].String(); g != w {
					t.Errorf("%s over %d selected rows: row %d = %v, reference %v", plan.Source(), len(selected), r, got.Rows[r], want.Rows[r])
					break
				}
			}
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
	// Constant operands that fold to literals at compile time.
	f.Add("k > -3")
	f.Add("-3.5 <= v")
	f.Add("k > 0 - 3")
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

// TestConstantOperandsLowerToKernels: an operand that reads no column
// and no placeholder folds to a literal at compile time, so these
// comparisons run as kernels; one whose evaluation errors stays an
// interpreted leaf and errors per row, as the interpreter does.
func TestConstantOperandsLowerToKernels(t *testing.T) {
	var interpreted func(nd vecNode) bool
	interpreted = func(nd vecNode) bool {
		switch n := nd.(type) {
		case *interpNode:
			return true
		case *andNode:
			return interpreted(n.l) || interpreted(n.r)
		case *orNode:
			return interpreted(n.l) || interpreted(n.r)
		case *notNode:
			return interpreted(n.x)
		}
		return false
	}
	for _, c := range []struct {
		src    string
		interp bool
	}{
		{"k > -3", false},
		{"-3.5 <= v", false},
		{"k > 0 - 3", false},
		{"k IN (-1, 2)", false},
		{"NOT (v < -(1.5 * 2)) AND k IN (0 - 1, 2 + 0, -7)", false},
		{"k > 1 / 0", true},
		{"k IN (1, 1 / 0)", true},
	} {
		e := MustParse(c.src)
		if got := interpreted(compileVecMatch(e, matchSchema).root); got != c.interp {
			t.Errorf("%s: interpreted leaf %v, want %v", c.src, got, c.interp)
		}
		checkBatchProgram(t, e)
	}
}

func TestBatchProgramUnknownColumn(t *testing.T) {
	// Schema checks normally reject unknown columns at compile time;
	// the program must still reproduce the interpreter's error if
	// handed one (an expression tree that skipped the schema check).
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

// BenchmarkRowMatcher reports what it costs to select the rows of a
// batch the way stream rules do — lay tuples out with Batch.Fill, then
// run the batch program once — beside the interpreter walking the same
// rows one at a time. One op is one batch of tuple.BatchRows rows.
func BenchmarkRowMatcher(b *testing.B) {
	base := matchTuples()
	tuples := make([]tuple.Tuple, tuple.BatchRows)
	for i := range tuples {
		tuples[i] = base[i%len(base)]
	}
	for _, src := range []string{"v < 50.0", "ok AND v > 30.0 AND name LIKE \"a%\""} {
		e, err := Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		pred := mustCompile(src, matchSchema)
		b.Run("batch/"+src, func(b *testing.B) {
			m := pred.NewBatchMatcher()
			var batch tuple.Batch
			for i := 0; i < b.N; i++ {
				batch.Fill(matchSchema, tuples)
				_, _, _ = m.Match(&batch)
			}
		})
		b.Run("interp/"+src, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for j := range tuples {
					_, _ = interpMatch(e, &tuples[j])
				}
			}
		})
	}
}

// TestGroupIdentity pins which rows share a bucket in absolute terms
// (the oracles only prove the batch fold and the row fold agree): values
// group by how they render — every NaN is one group whatever its
// payload, -0 is not 0 — on both folds, within a shard and across Merge,
// in first-seen order.
func TestGroupIdentity(t *testing.T) {
	nan2 := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1)
	vs := []float64{math.NaN(), 0, math.Copysign(0, -1), 1.5, nan2, 0, 1.5, nan2, math.Copysign(0, -1), math.NaN()}
	rows := make([]tuple.Tuple, len(vs))
	for i, v := range vs {
		rows[i] = tuple.New(tuple.ID(i), 1, []tuple.Value{tuple.Int(int64(i % 2)), tuple.Float(v), tuple.String_("x"), tuple.Bool(true)})
	}
	stmt, err := ParseStatement("SELECT v, name, COUNT(*) AS n, MIN(_id) AS first FROM t GROUP BY v, name ORDER BY first")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := stmt.Plan(matchSchema)
	if err != nil {
		t.Fatal(err)
	}
	const want = `NaN "x" 4 0|0 "x" 2 1|-0 "x" 2 2|1.5 "x" 2 3|`
	render := func(g *Grid, err error) string {
		if err != nil {
			return err.Error()
		}
		var sb strings.Builder
		for _, r := range g.Rows {
			fmt.Fprintf(&sb, "%v %v %v %v|", r[0], r[1], r[2], r[3])
		}
		return sb.String()
	}
	if got := render(plan.reference(rows, nil)); got != want {
		t.Errorf("row fold:   %s\nwant:       %s", got, want)
	}
	all := []uint64{1<<uint(len(rows)) - 1}
	whole := plan.NewAggregator(nil)
	if err := whole.FeedBatch(batchOf(matchSchema, rows), all); err != nil {
		t.Fatal(err)
	}
	if got := render(whole.Grid()); got != want {
		t.Errorf("batch fold: %s\nwant:       %s", got, want)
	}
	// Two shards, split mid-way: the second meets the NaN of the other
	// payload first, and Merge must still find the first one's bucket.
	lo, hi := plan.NewAggregator(nil), plan.NewAggregator(nil)
	half := []uint64{1<<uint(len(rows)/2) - 1}
	if err := lo.FeedBatch(batchOf(matchSchema, rows[:len(rows)/2]), half); err != nil {
		t.Fatal(err)
	}
	if err := hi.FeedBatch(batchOf(matchSchema, rows[len(rows)/2:]), half); err != nil {
		t.Fatal(err)
	}
	if err := lo.Merge(hi); err != nil {
		t.Fatal(err)
	}
	if got := render(lo.Grid()); got != want {
		t.Errorf("merged:     %s\nwant:       %s", got, want)
	}
}
