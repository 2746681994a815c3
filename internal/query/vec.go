package query

import (
	"fmt"
	"math"
	"math/bits"

	"fungusdb/internal/tuple"
)

// This file is the engine's one WHERE evaluator: a bound expression
// tree lowered into column-wise batch kernels. The tree interpreter
// (Expr.Eval) is the semantic reference — every kernel reproduces it
// bit for bit: same selected rows, same error text, same first-erroring
// row. The program is total. Comparisons of a column against a literal
// or another column, IN over a literal list, LIKE with a literal
// pattern, bare BOOL columns, and AND/OR/NOT over those run as kernels;
// any other boolean sub-expression (arithmetic operands, computed LIKE
// patterns or IN lists, non-column left sides) becomes an interpNode
// leaf that decodes each selected row and hands it to the interpreter,
// so a shape without a kernel costs only its own leaf, never the plan.
//
// A kernel evaluates one operator over a selection bitmap (one bit per
// batch row) and writes a result bitmap. Errors keep lazy, per-row
// semantics: eval returns the index of the first selected row whose
// evaluation would error under the interpreter, with result bits
// defined only below that row — exactly the prefix a row-by-row
// evaluation would have produced before aborting.

// colAcc is a schema-resolved column accessor.
type colAcc struct {
	kind tuple.Kind
	idx  int   // attribute index, sys == 0 only
	sys  uint8 // 0 = attribute, 1 = _t, 2 = _f, 3 = _id
}

// resolveCol resolves a column name once, at compile time. ok=false
// leaves the interpreter to report the unknown column per row.
func resolveCol(name string, schema *tuple.Schema) (colAcc, bool) {
	switch name {
	case tuple.SysTick:
		return colAcc{kind: tuple.KindInt, sys: 1}, true
	case tuple.SysFresh:
		return colAcc{kind: tuple.KindFloat, sys: 2}, true
	case tuple.SysID:
		return colAcc{kind: tuple.KindInt, sys: 3}, true
	}
	if i := schema.Index(name); i >= 0 {
		return colAcc{kind: schema.Column(i).Kind, idx: i}, true
	}
	return colAcc{}, false
}

// colRef resolves e when it is a plain column reference.
func colRef(e Expr, schema *tuple.Schema) (colAcc, bool) {
	c, ok := e.(Col)
	if !ok {
		return colAcc{}, false
	}
	return resolveCol(c.Name, schema)
}

// numericKind reports whether k participates in numeric comparison.
func numericKind(k tuple.Kind) bool { return k == tuple.KindInt || k == tuple.KindFloat }

func allLits(list []Expr) bool {
	for _, e := range list {
		if _, ok := e.(Lit); !ok {
			return false
		}
	}
	return true
}

// cmpDecide turns a three-way comparison into the operator's boolean.
func cmpDecide(op BinOp, cmp int) bool {
	switch op {
	case OpEq:
		return cmp == 0
	case OpNe:
		return cmp != 0
	case OpLt:
		return cmp < 0
	case OpLe:
		return cmp <= 0
	case OpGt:
		return cmp > 0
	case OpGe:
		return cmp >= 0
	}
	return false
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpString(a, b string) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpBool(a, b bool) int {
	switch {
	case !a && b:
		return -1
	case a && !b:
		return 1
	}
	return 0
}

// vecProg is an immutable compiled batch program, shared by every
// execution of its plan. Scratch state lives in BatchMatcher.
type vecProg struct {
	root   vecNode
	schema *tuple.Schema
	nbuf   int // scratch selection-bitmap slots
	nstr   int // string translate-table slots
}

// vecNode is one operator of a compiled batch program.
type vecNode interface {
	// eval computes the operator over the rows selected in sel,
	// setting out bits for rows where it yields true. It returns the
	// index of the first selected row whose evaluation errors (b.N
	// when none) and that row's error. Bits of out at or above the
	// returned row are unspecified; callers mask before use.
	eval(m *BatchMatcher, b *tuple.Batch, sel, out []uint64) (int, error)
}

// batchWords is the bitmap length covering a full batch.
const batchWords = tuple.BatchRows / 64

// maskBelow clears every bit at row index >= n.
func maskBelow(words []uint64, n int) {
	w := n >> 6
	if w >= len(words) {
		return
	}
	words[w] &= (1 << uint(n&63)) - 1
	for i := w + 1; i < len(words); i++ {
		words[i] = 0
	}
}

// firstSet returns the lowest set row index, or -1 when empty.
func firstSet(words []uint64) int {
	for w, m := range words {
		if m != 0 {
			return w<<6 + bits.TrailingZeros64(m)
		}
	}
	return -1
}

func zeroWords(words []uint64) {
	for i := range words {
		words[i] = 0
	}
}

// batchNum reads row j of a numeric column as its float64 image —
// the conversion tuple.Value.Compare applies (Numeric), so comparisons
// stay bit-identical to the interpreter even beyond 2^53. ok is false
// for non-numeric kinds.
func batchNum(c colAcc, b *tuple.Batch, j int) (float64, bool) {
	switch c.sys {
	case 1:
		return float64(b.Ts[j]), true
	case 2:
		return b.Fs[j], true
	case 3:
		return float64(b.IDs[j]), true
	}
	cv := &b.Cols[c.idx]
	switch c.kind {
	case tuple.KindInt:
		return float64(cv.Ints[j]), true
	case tuple.KindFloat:
		return cv.Floats[j], true
	}
	return 0, false
}

// batchValue reads row j of a column as a boxed Value.
func batchValue(c colAcc, b *tuple.Batch, j int) tuple.Value {
	switch c.sys {
	case 1:
		return tuple.Int(b.Ts[j])
	case 2:
		return tuple.Float(b.Fs[j])
	case 3:
		return tuple.Int(int64(b.IDs[j]))
	}
	return b.Cols[c.idx].Value(j)
}

// --- combinators ----------------------------------------------------

// andNode mirrors the interpreter's short-circuit AND: the right side
// is only evaluated for rows where the left was true and error-free.
type andNode struct {
	l, r vecNode
	tmp  int
}

func (nd *andNode) eval(m *BatchMatcher, b *tuple.Batch, sel, out []uint64) (int, error) {
	tmp := m.bufs[nd.tmp][:len(sel)]
	ra, errA := nd.l.eval(m, b, sel, tmp)
	if ra < b.N {
		maskBelow(tmp, ra)
	}
	rb, errB := nd.r.eval(m, b, tmp, out)
	for i := range out {
		out[i] &= tmp[i]
	}
	// The scan would abort at the earliest erroring row, whichever
	// side it came from; left errors only exist at ra, right errors
	// only below it (tmp was masked).
	if rb < ra {
		return rb, errB
	}
	return ra, errA
}

// orNode mirrors short-circuit OR: the right side runs only where the
// left was false and error-free.
type orNode struct {
	l, r       vecNode
	tmpA, tmpB int
}

func (nd *orNode) eval(m *BatchMatcher, b *tuple.Batch, sel, out []uint64) (int, error) {
	ltrue := m.bufs[nd.tmpA][:len(sel)]
	ra, errA := nd.l.eval(m, b, sel, ltrue)
	if ra < b.N {
		maskBelow(ltrue, ra)
	}
	rsel := m.bufs[nd.tmpB][:len(sel)]
	for i := range rsel {
		rsel[i] = sel[i] &^ ltrue[i]
	}
	if ra < b.N {
		maskBelow(rsel, ra)
	}
	rb, errB := nd.r.eval(m, b, rsel, out)
	for i := range out {
		out[i] |= ltrue[i]
	}
	if rb < ra {
		return rb, errB
	}
	return ra, errA
}

type notNode struct {
	x   vecNode
	tmp int
}

func (nd *notNode) eval(m *BatchMatcher, b *tuple.Batch, sel, out []uint64) (int, error) {
	tmp := m.bufs[nd.tmp][:len(sel)]
	rx, err := nd.x.eval(m, b, sel, tmp)
	for i := range out {
		out[i] = sel[i] &^ tmp[i]
	}
	return rx, err
}

// --- leaf kernels ---------------------------------------------------

// numLitNode compares a numeric column against a non-NaN numeric
// constant. check is set for FLOAT columns, whose stored values can be
// NaN and then error exactly like the interpreter.
type numLitNode struct {
	c     colAcc
	op    BinOp
	lit   float64
	check bool
	err   error
}

func (nd *numLitNode) eval(m *BatchMatcher, b *tuple.Batch, sel, out []uint64) (int, error) {
	zeroWords(out)
	for w, mset := range sel {
		base := w << 6
		for mset != 0 {
			j := base + bits.TrailingZeros64(mset)
			mset &= mset - 1
			a, _ := batchNum(nd.c, b, j)
			if nd.check && math.IsNaN(a) {
				return j, nd.err
			}
			if cmpDecide(nd.op, cmpFloat(a, nd.lit)) {
				out[w] |= 1 << uint(j&63)
			}
		}
	}
	return b.N, nil
}

// numColColNode compares two numeric columns row-wise.
type numColColNode struct {
	l, r colAcc
	op   BinOp
	err  error
}

func (nd *numColColNode) eval(m *BatchMatcher, b *tuple.Batch, sel, out []uint64) (int, error) {
	zeroWords(out)
	for w, mset := range sel {
		base := w << 6
		for mset != 0 {
			j := base + bits.TrailingZeros64(mset)
			mset &= mset - 1
			a, _ := batchNum(nd.l, b, j)
			bb, _ := batchNum(nd.r, b, j)
			if math.IsNaN(a) || math.IsNaN(bb) {
				return j, nd.err
			}
			if cmpDecide(nd.op, cmpFloat(a, bb)) {
				out[w] |= 1 << uint(j&63)
			}
		}
	}
	return b.N, nil
}

// strTableNode evaluates a per-string predicate (comparison against a
// literal, IN set probe, LIKE pattern) over a dictionary-encoded
// column by translating it once per dictionary entry and then probing
// the resulting truth table per row — the predicate itself runs
// O(distinct), not O(rows). Tables cache per segment tag: a tag
// changes whenever a segment's dictionary could (rebuild, compaction),
// so a stale table can never be probed.
type strTableNode struct {
	idx  int
	slot int
	pred func(string) bool
}

func (nd *strTableNode) eval(m *BatchMatcher, b *tuple.Batch, sel, out []uint64) (int, error) {
	cv := &b.Cols[nd.idx]
	tab := m.tabs[nd.slot]
	if m.tabSeg[nd.slot] != b.Seg || len(tab) < len(cv.Dict) {
		if cap(tab) < len(cv.Dict) {
			tab = make([]bool, len(cv.Dict))
		}
		tab = tab[:len(cv.Dict)]
		for d, s := range cv.Dict {
			tab[d] = nd.pred(s)
		}
		m.tabs[nd.slot] = tab
		m.tabSeg[nd.slot] = b.Seg
	}
	codes := cv.Codes
	zeroWords(out)
	for w, mset := range sel {
		base := w << 6
		for mset != 0 {
			j := base + bits.TrailingZeros64(mset)
			mset &= mset - 1
			if tab[codes[j]] {
				out[w] |= 1 << uint(j&63)
			}
		}
	}
	return b.N, nil
}

// strColColNode compares two string columns row-wise through their
// dictionaries.
type strColColNode struct {
	li, ri int
	op     BinOp
}

func (nd *strColColNode) eval(m *BatchMatcher, b *tuple.Batch, sel, out []uint64) (int, error) {
	lc, rc := &b.Cols[nd.li], &b.Cols[nd.ri]
	zeroWords(out)
	for w, mset := range sel {
		base := w << 6
		for mset != 0 {
			j := base + bits.TrailingZeros64(mset)
			mset &= mset - 1
			if cmpDecide(nd.op, cmpString(lc.Dict[lc.Codes[j]], rc.Dict[rc.Codes[j]])) {
				out[w] |= 1 << uint(j&63)
			}
		}
	}
	return b.N, nil
}

type boolCmpLitNode struct {
	idx int
	op  BinOp
	lit bool
}

func (nd *boolCmpLitNode) eval(m *BatchMatcher, b *tuple.Batch, sel, out []uint64) (int, error) {
	vals := b.Cols[nd.idx].Bools
	zeroWords(out)
	for w, mset := range sel {
		base := w << 6
		for mset != 0 {
			j := base + bits.TrailingZeros64(mset)
			mset &= mset - 1
			if cmpDecide(nd.op, cmpBool(vals[j], nd.lit)) {
				out[w] |= 1 << uint(j&63)
			}
		}
	}
	return b.N, nil
}

type boolColColNode struct {
	li, ri int
	op     BinOp
}

func (nd *boolColColNode) eval(m *BatchMatcher, b *tuple.Batch, sel, out []uint64) (int, error) {
	lv, rv := b.Cols[nd.li].Bools, b.Cols[nd.ri].Bools
	zeroWords(out)
	for w, mset := range sel {
		base := w << 6
		for mset != 0 {
			j := base + bits.TrailingZeros64(mset)
			mset &= mset - 1
			if cmpDecide(nd.op, cmpBool(lv[j], rv[j])) {
				out[w] |= 1 << uint(j&63)
			}
		}
	}
	return b.N, nil
}

// numInNode probes a numeric column against a literal set keyed by
// float64 image; NaN values miss, matching Compare.
type numInNode struct {
	c   colAcc
	set map[float64]struct{}
}

func (nd *numInNode) eval(m *BatchMatcher, b *tuple.Batch, sel, out []uint64) (int, error) {
	zeroWords(out)
	for w, mset := range sel {
		base := w << 6
		for mset != 0 {
			j := base + bits.TrailingZeros64(mset)
			mset &= mset - 1
			a, _ := batchNum(nd.c, b, j)
			if _, hit := nd.set[a]; hit {
				out[w] |= 1 << uint(j&63)
			}
		}
	}
	return b.N, nil
}

// boolColNode is a bare BOOL column used as the predicate.
type boolColNode struct {
	idx int
}

func (nd *boolColNode) eval(m *BatchMatcher, b *tuple.Batch, sel, out []uint64) (int, error) {
	vals := b.Cols[nd.idx].Bools
	zeroWords(out)
	for w, mset := range sel {
		base := w << 6
		for mset != 0 {
			j := base + bits.TrailingZeros64(mset)
			mset &= mset - 1
			if vals[j] {
				out[w] |= 1 << uint(j&63)
			}
		}
	}
	return b.N, nil
}

// litBoolNode is a constant BOOL predicate.
type litBoolNode struct {
	val bool
}

func (nd *litBoolNode) eval(m *BatchMatcher, b *tuple.Batch, sel, out []uint64) (int, error) {
	if nd.val {
		copy(out, sel)
	} else {
		zeroWords(out)
	}
	return b.N, nil
}

// staticErrNode reproduces operators that error for every tuple they
// are evaluated on (statically incomparable kinds, NaN literals,
// non-string LIKE operands): the scan aborts at the first selected
// row, or selects nothing when no row reaches the operator.
type staticErrNode struct {
	err error
}

func (nd *staticErrNode) eval(m *BatchMatcher, b *tuple.Batch, sel, out []uint64) (int, error) {
	zeroWords(out)
	if j := firstSet(sel); j >= 0 {
		return j, nd.err
	}
	return b.N, nil
}

// interpNode is the leaf that makes the program total: a sub-expression
// with no kernel evaluates through the tree interpreter, one selected
// row at a time over the matcher's scratch tuple. nonBool renders the
// error the enclosing operator (or the predicate root) reports for a
// value that is not BOOL.
type interpNode struct {
	e       Expr
	nonBool func(tuple.Kind) error
}

func (nd *interpNode) eval(m *BatchMatcher, b *tuple.Batch, sel, out []uint64) (int, error) {
	if m.env == nil {
		m.env = &TupleEnv{Schema: m.prog.schema, Tuple: new(tuple.Tuple)}
	}
	zeroWords(out)
	for w, mset := range sel {
		base := w << 6
		for mset != 0 {
			j := base + bits.TrailingZeros64(mset)
			mset &= mset - 1
			b.ReadRow(j, m.env.Tuple)
			v, err := nd.e.Eval(m.env)
			if err != nil {
				return j, err
			}
			if v.Kind() != tuple.KindBool {
				return j, nd.nonBool(v.Kind())
			}
			if v.AsBool() {
				out[w] |= 1 << uint(j&63)
			}
		}
	}
	return b.N, nil
}

// --- compiler -------------------------------------------------------

type vecCompiler struct {
	schema *tuple.Schema
	nbuf   int
	nstr   int
}

func (vc *vecCompiler) buf() int { vc.nbuf++; return vc.nbuf - 1 }
func (vc *vecCompiler) str() int { vc.nstr++; return vc.nstr - 1 }

// compileVecMatch lowers a predicate into a batch program. Every
// expression compiles: shapes without a kernel become interpNode
// leaves.
func compileVecMatch(e Expr, schema *tuple.Schema) *vecProg {
	vc := &vecCompiler{schema: schema}
	root := vc.boolNode(e, func(k tuple.Kind) error {
		return fmt.Errorf("query: predicate yields %s, want BOOL", k)
	})
	return &vecProg{root: root, schema: schema, nbuf: vc.nbuf, nstr: vc.nstr}
}

// boolNode lowers e in a position that needs a BOOL; nonBool is that
// position's error for any other kind.
func (vc *vecCompiler) boolNode(e Expr, nonBool func(tuple.Kind) error) vecNode {
	var nd vecNode
	switch n := e.(type) {
	case Bin:
		switch n.Op {
		case OpAnd, OpOr:
			operand := func(k tuple.Kind) error {
				return fmt.Errorf("query: %s needs BOOL operands, got %s", n.Op, k)
			}
			l, r := vc.boolNode(n.L, operand), vc.boolNode(n.R, operand)
			if n.Op == OpAnd {
				return &andNode{l: l, r: r, tmp: vc.buf()}
			}
			return &orNode{l: l, r: r, tmpA: vc.buf(), tmpB: vc.buf()}
		case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
			nd = vc.cmp(n)
		}
	case Not:
		x := vc.boolNode(n.X, func(k tuple.Kind) error {
			return fmt.Errorf("query: NOT needs BOOL, got %s", k)
		})
		return &notNode{x: x, tmp: vc.buf()}
	case Like:
		nd = vc.like(n)
	case In:
		nd = vc.in(n)
	case Lit:
		if n.V.Kind() == tuple.KindBool {
			return &litBoolNode{val: n.V.AsBool()}
		}
	case Col:
		if c, ok := resolveCol(n.Name, vc.schema); ok && c.kind == tuple.KindBool {
			return &boolColNode{idx: c.idx}
		}
	}
	if nd == nil {
		nd = &interpNode{e: e, nonBool: nonBool}
	}
	return nd
}

// cmp lowers column-vs-literal (either order) and column-vs-column
// comparisons; nil for any other operand shape.
func (vc *vecCompiler) cmp(n Bin) vecNode {
	op := n.Op
	if c, ok := colRef(n.L, vc.schema); ok {
		if lit, isLit := n.R.(Lit); isLit {
			return vc.colLit(c, op, lit.V, false)
		}
		if c2, ok2 := colRef(n.R, vc.schema); ok2 {
			return vc.colCol(c, op, c2)
		}
		return nil
	}
	if lit, isLit := n.L.(Lit); isLit {
		if c, ok := colRef(n.R, vc.schema); ok {
			return vc.colLit(c, flipCmp(op), lit.V, true)
		}
	}
	return nil
}

// colLit specialises a column-vs-constant comparison on the operands'
// kinds. swap marks the source order as literal-first (the caller
// mirrored op with flipCmp), which only matters for the error
// message's operand order.
func (vc *vecCompiler) colLit(c colAcc, op BinOp, lit tuple.Value, swap bool) vecNode {
	kinds := [2]tuple.Kind{c.kind, lit.Kind()}
	if swap {
		kinds[0], kinds[1] = kinds[1], kinds[0]
	}
	incomparable := fmt.Errorf("query: cannot compare %s and %s", kinds[0], kinds[1])
	switch {
	case numericKind(c.kind) && numericKind(lit.Kind()):
		b, _ := lit.Numeric()
		if math.IsNaN(b) {
			return &staticErrNode{err: incomparable}
		}
		// INT columns never produce NaN through their float64 image,
		// so only FLOAT columns carry the per-row check.
		return &numLitNode{c: c, op: op, lit: b, check: c.kind == tuple.KindFloat, err: incomparable}
	case c.kind == tuple.KindString && lit.Kind() == tuple.KindString:
		s := lit.AsString()
		return &strTableNode{idx: c.idx, slot: vc.str(), pred: func(x string) bool {
			return cmpDecide(op, cmpString(x, s))
		}}
	case c.kind == tuple.KindBool && lit.Kind() == tuple.KindBool:
		return &boolCmpLitNode{idx: c.idx, op: op, lit: lit.AsBool()}
	default:
		// Statically incomparable kinds error for every row evaluated.
		return &staticErrNode{err: incomparable}
	}
}

// colCol specialises a column-vs-column comparison.
func (vc *vecCompiler) colCol(l colAcc, op BinOp, r colAcc) vecNode {
	switch {
	case numericKind(l.kind) && numericKind(r.kind):
		return &numColColNode{l: l, r: r, op: op,
			err: fmt.Errorf("query: cannot compare %s and %s", l.kind, r.kind)}
	case l.kind == tuple.KindString && r.kind == tuple.KindString:
		return &strColColNode{li: l.idx, ri: r.idx, op: op}
	case l.kind == tuple.KindBool && r.kind == tuple.KindBool:
		return &boolColColNode{li: l.idx, ri: r.idx, op: op}
	default:
		return &staticErrNode{err: fmt.Errorf("query: cannot compare %s and %s", l.kind, r.kind)}
	}
}

// like lowers `column LIKE literal`; nil for computed operands.
func (vc *vecCompiler) like(n Like) vecNode {
	c, ok := colRef(n.X, vc.schema)
	if !ok {
		return nil
	}
	lit, isLit := n.Pattern.(Lit)
	if !isLit {
		return nil
	}
	if lit.V.Kind() == tuple.KindString {
		pat := lit.V.AsString()
		if c.kind == tuple.KindString {
			return &strTableNode{idx: c.idx, slot: vc.str(), pred: func(x string) bool {
				return likeMatch(x, pat)
			}}
		}
		return &staticErrNode{err: fmt.Errorf("query: LIKE needs STRING operands, got %s and %s", c.kind, tuple.KindString)}
	}
	return &staticErrNode{err: fmt.Errorf("query: LIKE needs STRING operands, got %s and %s", c.kind, lit.V.Kind())}
}

// in lowers `column IN (literals)` to a hash-set probe (numeric values
// key by their float64 image, matching Compare's cross-kind equality);
// nil for any other shape.
func (vc *vecCompiler) in(n In) vecNode {
	c, ok := colRef(n.X, vc.schema)
	if !ok || !allLits(n.List) {
		return nil
	}
	switch {
	case numericKind(c.kind):
		set := make(map[float64]struct{}, len(n.List))
		for _, it := range n.List {
			if f, ok := it.(Lit).V.Numeric(); ok && !math.IsNaN(f) {
				set[f] = struct{}{}
			}
		}
		return &numInNode{c: c, set: set}
	case c.kind == tuple.KindString:
		set := make(map[string]struct{}, len(n.List))
		for _, it := range n.List {
			if v := it.(Lit).V; v.Kind() == tuple.KindString {
				set[v.AsString()] = struct{}{}
			}
		}
		return &strTableNode{idx: c.idx, slot: vc.str(), pred: func(x string) bool {
			_, hit := set[x]
			return hit
		}}
	}
	return nil
}

// --- matcher --------------------------------------------------------

// BatchMatcher is one execution's batch-program state: scratch
// selection bitmaps, per-segment string translate tables and, once an
// interpreted leaf has run, the scratch row such leaves decode into.
// It is not safe for concurrent use; executors create one per shard
// scan.
type BatchMatcher struct {
	prog   *vecProg // nil = no WHERE clause
	base   []uint64
	out    []uint64
	bufs   [][]uint64
	tabSeg []uint64
	tabs   [][]bool
	env    *TupleEnv // interpNode's; one per matcher, so no Env is boxed per row
}

func newBatchMatcher(prog *vecProg) *BatchMatcher {
	m := &BatchMatcher{
		prog: prog,
		base: make([]uint64, batchWords),
		out:  make([]uint64, batchWords),
	}
	if prog != nil {
		m.bufs = make([][]uint64, prog.nbuf)
		for i := range m.bufs {
			m.bufs[i] = make([]uint64, batchWords)
		}
		m.tabSeg = make([]uint64, prog.nstr)
		m.tabs = make([][]bool, prog.nstr)
	}
	return m
}

// Match evaluates the WHERE program over one batch, returning the
// selection bitmap of matching live rows, the first erroring row (b.N
// when none) and its error. Bits at or above the error row are
// cleared: they are exactly the rows a row-by-row evaluation would
// never have reached. The bitmap aliases matcher scratch and is valid
// until the next Match call.
func (m *BatchMatcher) Match(b *tuple.Batch) ([]uint64, int, error) {
	nw := len(b.Live)
	sel := m.base[:nw]
	copy(sel, b.Live)
	if m.prog == nil {
		return sel, b.N, nil
	}
	out := m.out[:nw]
	errRow, err := m.prog.root.eval(m, b, sel, out)
	if errRow < b.N {
		maskBelow(out, errRow)
	}
	return out, errRow, err
}

// NewBatchMatcher returns a fresh batch evaluator for the plan's WHERE
// clause. A placeholder the plan still carries evaluates to the
// interpreter's not-bound error for every row; Bind first.
func (p *Plan) NewBatchMatcher() *BatchMatcher { return newBatchMatcher(p.vec) }

// NewBatchMatcher returns a fresh batch evaluator for the predicate.
func (p *Predicate) NewBatchMatcher() *BatchMatcher { return newBatchMatcher(p.vec) }
