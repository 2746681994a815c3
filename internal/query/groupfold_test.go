package query

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"fungusdb/internal/clock"
	"fungusdb/internal/tuple"
)

// The value pools FuzzGroupFold draws from: the cases where two values
// are one group only by rule — NaN payloads and signs, ±0, integers and
// floats beside 2^53 whose float images tie — and strings and ticks
// small enough that sums are exact in any order.
var (
	foldInts   = []int64{0, 1, -1, 1 << 53, 1<<53 + 1, 1<<53 - 1, math.MinInt64, math.MaxInt64}
	foldFloats = []float64{
		math.NaN(), math.Float64frombits(math.Float64bits(math.NaN()) ^ 1), math.Copysign(math.NaN(), -1),
		0, math.Copysign(0, -1), 1.5, 1 << 53, 1<<53 + 2, math.Inf(1),
	}
	foldStrings = []string{"x", "", "a", "b", "é"}
	// foldCols are the GROUP BY and extreme candidates.
	foldCols = []string{"k", "v", "name", "ok", tuple.SysTick, tuple.SysID}
)

// foldRowBytes is what one row of a FuzzGroupFold input takes: k, v,
// name and _t pool indices, then flags (bit 0: ok, bit 1: left out of
// the selection).
const foldRowBytes = 5

// foldSeed encodes TestGroupIdentity's rows as a FuzzGroupFold input:
// GROUP BY v, name over two aggregators, MIN/MAX over k.
func foldSeed() []byte {
	data := []byte{1, 1, 2, 0, 1, 0, 0}
	for i, v := range []int{0, 3, 4, 5, 1, 3, 5, 1, 4, 0} {
		data = append(data, byte(i%2), byte(v), 0, 1, 1)
	}
	return data
}

// FuzzGroupFold is the differential check of the group table against
// the row fold: random GROUP BY keys of one to three columns over INT,
// FLOAT, STRING, BOOL, _t and _id, rows split in ID order over one to
// three aggregators, each fed by FeedBatch in one or two batches under a
// random selection, with and without shard codes, then merged in order.
// Grid must equal Plan.reference row for row. The error text must match
// too with one aggregator, or when the statement has one MIN/MAX target;
// otherwise only whether there is one, since which of several extremes
// fails first depends on the order the groups are merged in.
//
// Input: keys (count, then one byte each), the extreme column, the
// aggregator count, the batch flags (bit 2a: aggregator a in two
// batches; bit 2a+1: its batches without shard codes; bit 6: one
// extreme target only, bit 7 making it MAX rather than MIN), whether IDs
// start below 2^53, then foldRowBytes per row.
func FuzzGroupFold(f *testing.F) {
	f.Add(foldSeed())
	f.Add([]byte{2, 0, 2, 5, 3, 0x3f, 1, 3, 4, 1, 2, 0, 4, 3, 2, 1, 1, 0, 0, 0, 0, 2, 4, 3, 2, 3, 2})
	// One MIN(v) target over three aggregators, NaN in the first.
	f.Add([]byte{0, 2, 1, 2, 0x40, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 3, 0, 0, 0})
	f.Fuzz(checkGroupFold)
}

// checkGroupFold is FuzzGroupFold's check of one input.
func checkGroupFold(t *testing.T, data []byte) {
	{
		if len(data) < 5 {
			return
		}
		nk := 1 + int(data[0])%3
		var keys []string
		for _, b := range data[1 : 1+nk] {
			if c := foldCols[int(b)%len(foldCols)]; !strings.Contains(" "+strings.Join(keys, " ")+" ", " "+c+" ") {
				keys = append(keys, c)
			}
		}
		hdr := data[1+nk:]
		if len(hdr) < 4 {
			return
		}
		ext := foldCols[int(hdr[0])%len(foldCols)]
		naggs, flags := 1+int(hdr[1])%3, hdr[2]
		base := tuple.ID(0)
		if hdr[3]&1 == 1 {
			base = 1<<53 - 4
		}
		body := hdr[4:]
		n := min(len(body)/foldRowBytes, 3*tuple.BatchRows/4)
		rows := make([]tuple.Tuple, n)
		sel := make([]bool, n)
		for i := range rows {
			r := body[i*foldRowBytes:]
			rows[i] = tuple.New(base+tuple.ID(i), clock.Tick(r[3]%4), []tuple.Value{
				tuple.Int(foldInts[int(r[0])%len(foldInts)]),
				tuple.Float(foldFloats[int(r[1])%len(foldFloats)]),
				tuple.String_(foldStrings[int(r[2])%len(foldStrings)]),
				tuple.Bool(r[4]&1 == 1),
			})
			sel[i] = r[4]&2 == 0
		}
		extremes := fmt.Sprintf("MIN(%[1]s) AS lo, MAX(%[1]s) AS hi, MIN(_id) AS first", ext)
		oneExtreme := flags&0x40 != 0
		if oneExtreme {
			extremes = fmt.Sprintf("%s(%s) AS x", map[bool]string{false: "MIN", true: "MAX"}[flags&0x80 != 0], ext)
		}
		src := fmt.Sprintf("SELECT %s, COUNT(*) AS n, COUNT(%s) AS cx, SUM(_t) AS s, AVG(_t) AS a, %s FROM t GROUP BY %s",
			strings.Join(keys, ", "), ext, extremes, strings.Join(keys, ", "))
		stmt, err := ParseStatement(src)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := stmt.Plan(matchSchema)
		if err != nil {
			t.Fatal(err)
		}
		var picked []tuple.Tuple
		for i := range rows {
			if sel[i] {
				picked = append(picked, rows[i])
			}
		}
		want, wantErr := plan.reference(picked, nil)
		// Group identity in absolute terms: rows share a group exactly
		// when their keys render the same.
		if wantErr == nil {
			distinct := map[string]bool{}
			for _, tp := range picked {
				var sb strings.Builder
				for _, k := range keys {
					v, _ := (&TupleEnv{Schema: matchSchema, Tuple: &tp}).Lookup(k)
					fmt.Fprintf(&sb, "%v|", v)
				}
				distinct[sb.String()] = true
			}
			if len(want.Rows) != len(distinct) {
				t.Fatalf("%s: the row fold has %d groups, the rows %d distinct keys", src, len(want.Rows), len(distinct))
			}
		}

		aggs := make([]*Aggregator, naggs)
		var gotErr error
		for a := range aggs {
			aggs[a] = plan.NewAggregator(nil)
			lo, hi := n*a/naggs, n*(a+1)/naggs
			cuts := []int{lo, hi}
			if flags>>(2*a)&1 == 1 {
				cuts = []int{lo, (lo + hi) / 2, hi}
			}
			shard := map[string]uint32{}
			for c := 1; c < len(cuts) && gotErr == nil; c++ {
				b, bsel := foldBatch(rows[cuts[c-1]:cuts[c]], sel[cuts[c-1]:cuts[c]], shard, flags>>(2*a+1)&1 == 0)
				gotErr = aggs[a].FeedBatch(b, bsel)
			}
			if gotErr != nil {
				break
			}
		}
		for _, b := range aggs[1:] {
			if gotErr == nil {
				gotErr = aggs[0].Merge(b)
			}
		}
		var got *Grid
		if gotErr == nil {
			got, gotErr = aggs[0].Grid()
		}
		sameText := naggs == 1 || oneExtreme
		if (gotErr == nil) != (wantErr == nil) || sameText && gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s over %d aggregators: error %v, row fold %v", src, naggs, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if g, w := renderGrid(got), renderGrid(want); g != w {
			t.Fatalf("%s over %d aggregators:\n got %s\nwant %s", src, naggs, g, w)
		}
	}
}

// TestMergeIncomparableErrorText: a MIN or MAX whose group holds NaN in
// one shard's aggregator and 3 in another's fails the merge with the
// row fold's words, so the error does not depend on how the rows fell
// across shards.
func TestMergeIncomparableErrorText(t *testing.T) {
	rows := []tuple.Tuple{
		tuple.New(0, 0, []tuple.Value{tuple.Int(0), tuple.Float(math.NaN()), tuple.String_("x"), tuple.Bool(false)}),
		tuple.New(1, 0, []tuple.Value{tuple.Int(0), tuple.Float(3), tuple.String_("x"), tuple.Bool(false)}),
	}
	for _, agg := range []string{"MIN", "MAX"} {
		stmt, err := ParseStatement("SELECT name, " + agg + "(v) AS x FROM t GROUP BY name")
		if err != nil {
			t.Fatal(err)
		}
		plan, err := stmt.Plan(matchSchema)
		if err != nil {
			t.Fatal(err)
		}
		_, wantErr := plan.reference(rows, nil)
		aggs := [2]*Aggregator{plan.NewAggregator(nil), plan.NewAggregator(nil)}
		for i, a := range aggs {
			b, sel := foldBatch(rows[i:i+1], []bool{true}, map[string]uint32{}, true)
			if err := a.FeedBatch(b, sel); err != nil {
				t.Fatal(err)
			}
		}
		gotErr := aggs[0].Merge(aggs[1])
		if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Errorf("%s: Merge error %v, row fold %v; want the same error", agg, gotErr, wantErr)
		}
	}
}

// foldBatch lays rows out as a scan batch with the given selection.
// The dictionary lists the batch's strings last seen first, so its
// codes are not the order the rows meet them; with codes, each string
// takes a sparse shard code that stays the same across the batches of
// one shard map.
func foldBatch(rows []tuple.Tuple, sel []bool, shard map[string]uint32, codes bool) (*tuple.Batch, []uint64) {
	b := new(tuple.Batch)
	b.Fill(matchSchema, rows)
	bits := make([]uint64, len(b.Live))
	for j, ok := range sel {
		if ok {
			bits[j>>6] |= 1 << uint(j&63)
		}
	}
	cv := &b.Cols[2]
	at := map[string]uint32{}
	var dict []string
	for j := len(rows) - 1; j >= 0; j-- {
		s := rows[j].Attrs[2].AsString()
		if _, ok := at[s]; !ok {
			at[s] = uint32(len(dict))
			dict = append(dict, s)
		}
	}
	for j := range rows {
		cv.Codes[j] = at[rows[j].Attrs[2].AsString()]
	}
	cv.Dict = dict
	if codes {
		cv.Shard = make([]uint32, len(dict))
		for d, s := range dict {
			sc, ok := shard[s]
			if !ok {
				sc = uint32(5 + 3*len(shard))
				shard[s] = sc
			}
			cv.Shard[d] = sc
		}
	}
	return b, bits
}

// renderGrid is a grid's rows as text: values compare by rendering, so
// NaN equals NaN and -0 differs from 0.
func renderGrid(g *Grid) string {
	var sb strings.Builder
	for _, r := range g.Rows {
		fmt.Fprintln(&sb, r)
	}
	return sb.String()
}
