package query

import (
	"math"
	"testing"

	"fungusdb/internal/tuple"
)

// Column values for the numeric-literal kernels: signed zeros, the
// integers around 2^53 where the float64 image starts to round, the
// int64 extremes, infinities and subnormals.
var (
	kernelInts = []int64{0, 1, -1, 1<<53 - 1, 1 << 53, 1<<53 + 1, -(1 << 53) - 1, 1<<53 + 3, math.MaxInt64, math.MinInt64, 7}
	kernelFlts = []float64{0, math.Copysign(0, -1), 1.5, -1.5, 1 << 53, 1<<53 + 2, -(1 << 53), math.Inf(1), math.Inf(-1), 1e300, 5e-324, 7}
)

// kernelBatch builds an n-row batch over matchSchema for the numeric
// kernels, its IDs ascending with seg and straddling 2^53. The FLOAT
// column v and the system column _f are NaN at each
// of the rows 0, 63, 64 and n-1 from nanFrom on. partial drops every
// third row, and with n > 128 the whole second word, so selections
// arrive in partly selected and empty words.
func kernelBatch(n, nanFrom int, partial bool, seg uint64) (*tuple.Batch, []tuple.Tuple) {
	b := &tuple.Batch{
		N:    n,
		IDs:  make([]tuple.ID, n),
		Ts:   make([]int64, n),
		Fs:   make([]float64, n),
		Inf:  make([]bool, n),
		Live: make([]uint64, (n+63)/64),
		Seg:  seg,
		Cols: []tuple.ColView{
			{Kind: tuple.KindInt, Ints: make([]int64, n)},
			{Kind: tuple.KindFloat, Floats: make([]float64, n)},
			{Kind: tuple.KindString, Codes: make([]uint32, n), Dict: []string{"alpha", "beta"}},
			{Kind: tuple.KindBool, Bools: make([]bool, n)},
		},
	}
	for j := 0; j < n; j++ {
		b.IDs[j] = tuple.ID(1<<53 - 8 + int(seg)<<11 + j)
		b.Ts[j] = kernelInts[(j+3)%len(kernelInts)]
		b.Fs[j] = kernelFlts[(j+5)%len(kernelFlts)]
		b.Cols[0].Ints[j] = kernelInts[j%len(kernelInts)]
		b.Cols[1].Floats[j] = kernelFlts[j%len(kernelFlts)]
		b.Cols[2].Codes[j] = uint32(j % 2)
		b.Cols[3].Bools[j] = j%4 != 1
		if !partial || (j%3 != 1 && (n <= 128 || j>>6 != 1)) {
			b.Live[j>>6] |= 1 << uint(j&63)
		}
	}
	for _, j := range []int{0, 63, 64, n - 1} {
		if j >= nanFrom && j < n {
			b.Cols[1].Floats[j] = math.NaN()
			b.Fs[j] = math.NaN()
		}
	}
	b.Alive = tuple.PopCount(b.Live)
	return b, batchRows(b)
}

// TestNumLitKernels holds the typed numeric-literal kernels to the
// interpreter: every comparison operator, INT, FLOAT and the three
// system columns, literals of both signs of zero and around 2^53 on
// either side, NaN rows first met at row 0, 63, 64 or the last row,
// batches of 70 and 1024 rows, partly selected words, and selections
// narrowed by an enclosing AND or OR.
func TestNumLitKernels(t *testing.T) {
	var gens []func() (*tuple.Batch, []tuple.Tuple)
	for _, n := range []int{70, 1024} {
		for _, nanFrom := range []int{0, 63, 64, n - 1, n} {
			for _, partial := range []bool{false, true} {
				seg := uint64(len(gens) + 1)
				gens = append(gens, func() (*tuple.Batch, []tuple.Tuple) { return kernelBatch(n, nanFrom, partial, seg) })
			}
		}
	}
	lits := []tuple.Value{
		tuple.Int(0), tuple.Float(0), tuple.Float(math.Copysign(0, -1)),
		tuple.Int(1 << 53), tuple.Int(1<<53 + 1), tuple.Float(1<<53 + 2), tuple.Int(-(1 << 53) - 1),
		tuple.Float(1.5),
	}
	ops := []BinOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
	for _, col := range []string{"k", "v", tuple.SysTick, tuple.SysFresh, tuple.SysID} {
		for _, op := range ops {
			for i, lit := range lits {
				c, l := Col{Name: col}, Lit{V: lit}
				exprs := []Expr{Bin{Op: op, L: c, R: l}, Bin{Op: op, L: l, R: c}}
				if i == 0 {
					exprs = append(exprs,
						Bin{Op: OpAnd, L: Col{Name: "ok"}, R: Bin{Op: op, L: c, R: l}},
						Bin{Op: OpOr, L: Bin{Op: OpLt, L: Col{Name: "k"}, R: Lit{V: tuple.Int(0)}}, R: Bin{Op: op, L: c, R: l}})
				}
				for k, e := range exprs {
					if root := compileVecMatch(e, matchSchema).root; k < 2 {
						if _, ok := root.(*numLitNode); !ok {
							t.Fatalf("%s: compiled to %T, want the numeric-literal kernel", e, root)
						}
					}
					_, _, _ = checkBatchProgramOver(t, e, gens)
				}
			}
		}
	}
}

var kernelSink []uint64

// BenchmarkNumLitKernel reports what one numeric-literal kernel costs
// per row over a full batch of tuple.BatchRows rows, every row live,
// filled once outside the timed loop.
func BenchmarkNumLitKernel(b *testing.B) {
	batch, _ := kernelBatch(tuple.BatchRows, tuple.BatchRows, false, 1)
	for _, src := range []string{"v > 1.5", "k >= 7", "_id < 9007199254741000"} {
		m := mustCompile(src, matchSchema).NewBatchMatcher()
		b.Run(src, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kernelSink, _, _ = m.Match(batch)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/tuple.BatchRows, "ns/row")
		})
	}
}
