package query

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"

	"fungusdb/internal/tuple"
)

// This file is the engine's one WHERE evaluator: a bound expression
// tree lowered into column-wise batch kernels. The tree interpreter
// (Expr.Eval) is the semantic reference — every kernel reproduces it
// bit for bit: same selected rows, same error text, same first-erroring
// row. The program is total. Comparisons of a column against a constant
// or another column, IN over a constant list, LIKE with a literal
// pattern, bare BOOL columns, and AND/OR/NOT over those run as kernels;
// a constant is a literal or an operand that reads no column and no
// placeholder (`-3.5`, `0 - 3`), folded once at compile time. Any other
// boolean sub-expression (arithmetic over columns, computed LIKE
// patterns or IN lists, non-column left sides) becomes an interpNode
// leaf that decodes each selected row and hands it to the interpreter,
// so a shape without a kernel costs only its own leaf, never the plan.
//
// A kernel evaluates one operator over a selection bitmap (one bit per
// batch row) and writes a result bitmap. A numeric column compared
// against a literal — the common WHERE shape — picks its typed column
// slice and its operator once per batch and builds each result word
// from 64 branch-free comparisons (cmpLitWords); the other kernels
// visit the selected rows one at a time. Errors keep lazy, per-row
// semantics: eval returns the index of the first selected row whose
// evaluation would error under the interpreter, with result bits
// defined only below that row — exactly the prefix a row-by-row
// evaluation would have produced before aborting.
//
// The same tree also reasons about whole segments. Before a scan walks
// a segment's batches, each node's zone method decides from the
// segment's zone map whether the node is false for every live row
// (none), true for every one (all) or undecided (some), and whether any
// row under it can error. A root none skips the segment (the only
// verdict allowed to hide an error); a node that is none or all and
// error-free costs no kernel; a FLOAT comparison over a segment without
// NaN drops its per-row NaN check. A matcher never given a zone runs
// every kernel and every check.

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

// bounds returns the column's zone bounds as float64 images (see
// image); ok is false for _f, which has no zone, and whenever the
// summary cannot vouch for the column.
func (c colAcc) bounds(z ZoneView) (lo, hi float64, ok bool) {
	var l, h tuple.Value
	switch c.sys {
	case 0:
		l, h, ok = z.Bounds(c.idx)
	case 1:
		l, h, ok = z.TickBounds()
	case 3:
		l, h, ok = z.IDBounds()
	}
	return image(l), image(h), ok
}

// image is the float64 a kernel compares a value as: Numeric for INT
// and FLOAT (so INT bounds beyond 2^53 round exactly as their rows
// do), 0 or 1 for BOOL.
func image(v tuple.Value) float64 {
	if v.Kind() == tuple.KindBool {
		return float64(b2u(v.AsBool()))
	}
	f, _ := v.Numeric()
	return f
}

// numericKind reports whether k participates in numeric comparison.
func numericKind(k tuple.Kind) bool { return k == tuple.KindInt || k == tuple.KindFloat }

// constant returns the value of an operand that reads no column and no
// placeholder, evaluated once, at compile time, so that `k > -3` or
// `k > 0 - 3` lowers as the literal it folds to. ok is false for any
// other operand, and for one whose evaluation errors (1 / 0, INT
// overflow): that one stays an interpreted leaf, so its error surfaces
// at the row it always did. The plan's expression tree is not
// rewritten.
func constant(e Expr) (tuple.Value, bool) {
	if lit, ok := e.(Lit); ok {
		return lit.V, true
	}
	if !closed(e) {
		return tuple.Value{}, false
	}
	v, err := e.Eval(TupleEnv{})
	return v, err == nil
}

// closed reports whether e reads no column and no placeholder.
func closed(e Expr) bool {
	switch n := e.(type) {
	case Lit:
		return true
	case Bin:
		return closed(n.L) && closed(n.R)
	case Not:
		return closed(n.X)
	case Neg:
		return closed(n.X)
	case Like:
		return closed(n.X) && closed(n.Pattern)
	case In:
		for _, it := range n.List {
			if !closed(it) {
				return false
			}
		}
		return closed(n.X)
	}
	return false
}

// flipCmp mirrors a comparison so the column lands on the left:
// lit < col  ==  col > lit.
func flipCmp(op BinOp) BinOp {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	}
	return op // Eq, Ne are symmetric
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
	nzone  int // segment-verdict slots
}

// vecNode is one operator of a compiled batch program.
type vecNode interface {
	// eval computes the operator over the rows selected in sel,
	// setting out bits for rows where it yields true. It returns the
	// index of the first selected row whose evaluation errors (b.N
	// when none) and that row's error. Bits of out at or above the
	// returned row are unspecified; callers mask before use.
	eval(m *BatchMatcher, b *tuple.Batch, sel, out []uint64) (int, error)
	// zone decides the operator over every live row of the segment z
	// summarises and records in m's verdict slots what its eval acts
	// on; it must write every slot it owns, so nothing carries over
	// from the previous segment.
	zone(m *BatchMatcher, z ZoneView) zfact
}

// ZoneView is the read surface of one segment's zone map: conservative
// per-column summaries the verdicts reason over. The storage layer's
// *storage.ZoneMap satisfies it structurally, keeping the two packages
// decoupled. ok=false (or MayContainString=true) means "unknown".
// Bounds are inclusive and cover a superset of the live rows, and a
// FLOAT column has bounds only while the segment holds no NaN.
type ZoneView interface {
	// Bounds returns inclusive bounds of schema column col.
	Bounds(col int) (lo, hi tuple.Value, ok bool)
	// TickBounds returns inclusive insertion-tick bounds (INT values).
	TickBounds() (lo, hi tuple.Value, ok bool)
	// IDBounds returns inclusive tuple-ID bounds (INT values).
	IDBounds() (lo, hi tuple.Value, ok bool)
	// MayContainString reports whether column col may hold s; false
	// means definitely absent.
	MayContainString(col int, s string) bool
}

// zfact is what a zone map proves about one node over a segment's live
// rows; 0 is "some" with no row able to error.
type zfact uint8

const (
	zNone  zfact = 1 << iota // every row that does not error yields false
	zAll                     // every row that does not error yields true
	zErr                     // some row may error
	zNoNaN                   // numLitNode's slot: the FLOAT column holds no NaN
)

// decided is the verdict eval may act on: none or all only when no row
// under the node can error, 0 (some) otherwise.
func (f zfact) decided() zfact {
	if f&zErr != 0 {
		return 0
	}
	return f
}

// not is NOT's verdict: none and all swap, errors stay.
func (f zfact) not() zfact { return f&zErr | (f&zNone)<<1 | (f&zAll)>>1 }

// rangeFact decides `x op lit` for every x in [lo, hi]. = is decided
// by a range without lit or holding nothing else, and != mirrors it; an
// ordering comparison holds on a half-line, so it decides the range
// when it agrees at both ends.
func rangeFact[T float64 | string](op BinOp, lo, hi, lit T) zfact {
	if op == OpEq || op == OpNe {
		var f zfact
		if lit < lo || lit > hi {
			f = zNone
		} else if lo == lit && hi == lit {
			f = zAll
		}
		if op == OpNe {
			return f.not()
		}
		return f
	}
	atLo, atHi := cmpDecide(op, cmp.Compare(lo, lit)), cmpDecide(op, cmp.Compare(hi, lit))
	switch {
	case atLo && atHi:
		return zAll
	case !atLo && !atHi:
		return zNone
	}
	return 0
}

// runZoned evaluates nd unless its decided verdict v makes the kernel
// moot: all passes sel through, none selects nothing.
func runZoned(nd vecNode, v zfact, m *BatchMatcher, b *tuple.Batch, sel, out []uint64) (int, error) {
	switch v {
	case zAll:
		copy(out, sel)
		return b.N, nil
	case zNone:
		zeroWords(out)
		return b.N, nil
	}
	return nd.eval(m, b, sel, out)
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
	zs   int // verdict slots: l's, then r's
}

func (nd *andNode) eval(m *BatchMatcher, b *tuple.Batch, sel, out []uint64) (int, error) {
	tmp := m.bufs[nd.tmp][:len(sel)]
	ra, errA := runZoned(nd.l, m.zv[nd.zs], m, b, sel, tmp)
	if ra < b.N {
		maskBelow(tmp, ra)
	}
	rb, errB := runZoned(nd.r, m.zv[nd.zs+1], m, b, tmp, out)
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

// zone: false on either side is false; the right side's errors count
// only where the left can be true.
func (nd *andNode) zone(m *BatchMatcher, z ZoneView) zfact {
	l, r := nd.l.zone(m, z), nd.r.zone(m, z)
	m.zv[nd.zs], m.zv[nd.zs+1] = l.decided(), r.decided()
	f := (l|r)&zNone | l&r&zAll | l&zErr
	if l&zNone == 0 {
		f |= r & zErr
	}
	return f
}

// orNode mirrors short-circuit OR: the right side runs only where the
// left was false and error-free.
type orNode struct {
	l, r       vecNode
	tmpA, tmpB int
	zs         int // verdict slots: l's, then r's
}

func (nd *orNode) eval(m *BatchMatcher, b *tuple.Batch, sel, out []uint64) (int, error) {
	ltrue := m.bufs[nd.tmpA][:len(sel)]
	ra, errA := runZoned(nd.l, m.zv[nd.zs], m, b, sel, ltrue)
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
	rb, errB := runZoned(nd.r, m.zv[nd.zs+1], m, b, rsel, out)
	for i := range out {
		out[i] |= ltrue[i]
	}
	if rb < ra {
		return rb, errB
	}
	return ra, errA
}

// zone: true on either side is true; the right side's errors count
// only where the left can be false.
func (nd *orNode) zone(m *BatchMatcher, z ZoneView) zfact {
	l, r := nd.l.zone(m, z), nd.r.zone(m, z)
	m.zv[nd.zs], m.zv[nd.zs+1] = l.decided(), r.decided()
	f := l&r&zNone | (l|r)&zAll | l&zErr
	if l&zAll == 0 {
		f |= r & zErr
	}
	return f
}

type notNode struct {
	x   vecNode
	tmp int
	zs  int // x's verdict slot
}

func (nd *notNode) eval(m *BatchMatcher, b *tuple.Batch, sel, out []uint64) (int, error) {
	tmp := m.bufs[nd.tmp][:len(sel)]
	rx, err := runZoned(nd.x, m.zv[nd.zs], m, b, sel, tmp)
	for i := range out {
		out[i] = sel[i] &^ tmp[i]
	}
	return rx, err
}

func (nd *notNode) zone(m *BatchMatcher, z ZoneView) zfact {
	x := nd.x.zone(m, z)
	m.zv[nd.zs] = x.decided()
	return x.not()
}

// --- leaf kernels ---------------------------------------------------

// numLitNode compares a numeric column against a non-NaN numeric
// constant. check is set for FLOAT columns, whose stored values can be
// NaN and then error exactly like the interpreter; the check is
// dropped over a segment whose zone vouches for the column (zs).
type numLitNode struct {
	c     colAcc
	op    BinOp
	lit   float64
	check bool
	zs    int // with check: verdict slot, zNoNaN when the segment has no NaN
	err   error
}

func (nd *numLitNode) eval(m *BatchMatcher, b *tuple.Batch, sel, out []uint64) (int, error) {
	check := nd.check && m.zv[nd.zs] != zNoNaN
	var nan int
	switch c := nd.c; {
	case c.sys == 1:
		nan = cmpLitWords(b.Ts[:b.N], nd.op, nd.lit, false, sel, out)
	case c.sys == 2:
		nan = cmpLitWords(b.Fs[:b.N], nd.op, nd.lit, check, sel, out)
	case c.sys == 3:
		nan = cmpLitWords(b.IDs[:b.N], nd.op, nd.lit, false, sel, out)
	case c.kind == tuple.KindInt:
		nan = cmpLitWords(b.Cols[c.idx].Ints[:b.N], nd.op, nd.lit, false, sel, out)
	default:
		nan = cmpLitWords(b.Cols[c.idx].Floats[:b.N], nd.op, nd.lit, check, sel, out)
	}
	if nan >= 0 {
		return nan, nd.err
	}
	return b.N, nil
}

// zone compares the literal against the bounds' float64 images. A
// FLOAT column has bounds only while its segment holds no NaN, so
// bounds also lift the NaN check; without them a NaN row may error.
func (nd *numLitNode) zone(m *BatchMatcher, z ZoneView) zfact {
	lo, hi, ok := nd.c.bounds(z)
	if nd.check {
		m.zv[nd.zs] = 0
		if !ok {
			return zErr
		}
		m.zv[nd.zs] = zNoNaN
	}
	if !ok {
		return 0
	}
	return rangeFact(nd.op, lo, hi, nd.lit)
}

// numCol is the element type of a numeric column slice: INT and _t
// (int64), FLOAT and _f (float64), _id (tuple.ID).
type numCol interface{ int64 | float64 | tuple.ID }

// cmpLitWords is numLitNode's kernel over one column slice: it sets
// out[w] to the rows of word w that sel selects and whose float64
// image compares true against lit. The operator is reduced once to
// one of ==, <, > plus an inversion (!=, >=, <= are the complements,
// exact here because a NaN row either errors or, in an INT column,
// cannot occur). With check it returns the first selected NaN row and
// leaves the words after that row's unwritten; otherwise, or when no
// selected row is NaN, it returns -1.
func cmpLitWords[T numCol](vals []T, op BinOp, lit float64, check bool, sel, out []uint64) int {
	var inv uint64
	switch op {
	case OpNe:
		op, inv = OpEq, ^uint64(0)
	case OpGe:
		op, inv = OpLt, ^uint64(0)
	case OpLe:
		op, inv = OpGt, ^uint64(0)
	}
	for w, s := range sel {
		if s == 0 {
			out[w] = 0
			continue
		}
		word := vals[w<<6 : min(w<<6+64, len(vals))]
		out[w] = (litWord(word, op, lit) ^ inv) & s
		if check {
			if nan := nanWord(word) & s; nan != 0 {
				return w<<6 + bits.TrailingZeros64(nan)
			}
		}
	}
	return -1
}

// litWord compares up to 64 values against lit under ==, < or >,
// setting bit k for word[k] without a branch. It builds eight bits at a
// time with constant shifts and moves the byte into place; a tail
// shorter than eight goes a bit at a time.
func litWord[T numCol](word []T, op BinOp, lit float64) (r uint64) {
	k := 0
	switch op {
	case OpEq:
		for ; k+8 <= len(word); k += 8 {
			w := word[k : k+8 : k+8]
			r |= (b2u(float64(w[0]) == lit) | b2u(float64(w[1]) == lit)<<1 | b2u(float64(w[2]) == lit)<<2 | b2u(float64(w[3]) == lit)<<3 |
				b2u(float64(w[4]) == lit)<<4 | b2u(float64(w[5]) == lit)<<5 | b2u(float64(w[6]) == lit)<<6 | b2u(float64(w[7]) == lit)<<7) << (k & 63)
		}
		for ; k < len(word); k++ {
			r |= b2u(float64(word[k]) == lit) << (k & 63)
		}
	case OpLt:
		for ; k+8 <= len(word); k += 8 {
			w := word[k : k+8 : k+8]
			r |= (b2u(float64(w[0]) < lit) | b2u(float64(w[1]) < lit)<<1 | b2u(float64(w[2]) < lit)<<2 | b2u(float64(w[3]) < lit)<<3 |
				b2u(float64(w[4]) < lit)<<4 | b2u(float64(w[5]) < lit)<<5 | b2u(float64(w[6]) < lit)<<6 | b2u(float64(w[7]) < lit)<<7) << (k & 63)
		}
		for ; k < len(word); k++ {
			r |= b2u(float64(word[k]) < lit) << (k & 63)
		}
	default: // OpGt
		for ; k+8 <= len(word); k += 8 {
			w := word[k : k+8 : k+8]
			r |= (b2u(float64(w[0]) > lit) | b2u(float64(w[1]) > lit)<<1 | b2u(float64(w[2]) > lit)<<2 | b2u(float64(w[3]) > lit)<<3 |
				b2u(float64(w[4]) > lit)<<4 | b2u(float64(w[5]) > lit)<<5 | b2u(float64(w[6]) > lit)<<6 | b2u(float64(w[7]) > lit)<<7) << (k & 63)
		}
		for ; k < len(word); k++ {
			r |= b2u(float64(word[k]) > lit) << (k & 63)
		}
	}
	return r
}

// nanWord sets bit k for each NaN word[k].
func nanWord[T numCol](word []T) (r uint64) {
	for k, v := range word {
		r |= b2u(math.IsNaN(float64(v))) << (k & 63)
	}
	return r
}

// b2u is 1 for true, 0 for false; the compiler lowers it to a flag
// set, not a branch.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
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

// zone: two columns' bounds prove nothing row-wise, and a FLOAT NaN
// errors.
func (nd *numColColNode) zone(*BatchMatcher, ZoneView) zfact { return zErr }

// strTableNode evaluates a per-string predicate (comparison against a
// literal, IN set probe, LIKE pattern) over a dictionary-encoded
// column by translating it once per dictionary entry and then probing
// the resulting truth table per row — the predicate itself runs
// O(distinct), not O(rows). Tables cache per segment tag: a tag
// changes whenever a segment's dictionary could (rebuild, compaction),
// so a stale table can never be probed.
//
// A comparison keeps its operator and literal, and IN its list (op
// OpEq), for the zone verdict; LIKE has neither (lits nil).
type strTableNode struct {
	idx  int
	slot int
	pred func(string) bool
	op   BinOp
	lits []string
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

// zone: a segment holding one string lets the predicate decide it;
// otherwise the bounds decide an ordering comparison, and = or IN is
// false when the bounds or the bloom rule out every literal.
func (nd *strTableNode) zone(m *BatchMatcher, z ZoneView) zfact {
	lo, hi, ok := z.Bounds(nd.idx)
	if !ok {
		return 0
	}
	l, h := lo.AsString(), hi.AsString()
	switch {
	case l == h:
		if nd.pred(l) {
			return zAll
		}
		return zNone
	case nd.lits == nil:
		return 0
	case nd.op != OpEq && nd.op != OpNe:
		return rangeFact(nd.op, l, h, nd.lits[0])
	}
	for _, s := range nd.lits {
		if s >= l && s <= h && z.MayContainString(nd.idx, s) {
			return 0
		}
	}
	if nd.op == OpNe {
		return zAll
	}
	return zNone
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

func (nd *strColColNode) zone(*BatchMatcher, ZoneView) zfact { return 0 }

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

func (nd *boolCmpLitNode) zone(m *BatchMatcher, z ZoneView) zfact {
	lo, hi, ok := colAcc{idx: nd.idx}.bounds(z)
	if !ok {
		return 0
	}
	return rangeFact(nd.op, lo, hi, float64(b2u(nd.lit)))
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

func (nd *boolColColNode) zone(*BatchMatcher, ZoneView) zfact { return 0 }

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

// zone: false when every member lies outside the bounds' images.
func (nd *numInNode) zone(m *BatchMatcher, z ZoneView) zfact {
	lo, hi, ok := nd.c.bounds(z)
	if !ok {
		return 0
	}
	for v := range nd.set {
		if v >= lo && v <= hi {
			return 0
		}
	}
	return zNone
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

func (nd *boolColNode) zone(m *BatchMatcher, z ZoneView) zfact {
	lo, hi, ok := colAcc{idx: nd.idx}.bounds(z)
	if !ok {
		return 0
	}
	return rangeFact(OpEq, lo, hi, 1)
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

func (nd *litBoolNode) zone(*BatchMatcher, ZoneView) zfact {
	if nd.val {
		return zAll
	}
	return zNone
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

func (nd *staticErrNode) zone(*BatchMatcher, ZoneView) zfact { return zErr }

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

func (nd *interpNode) zone(*BatchMatcher, ZoneView) zfact { return zErr }

// --- compiler -------------------------------------------------------

type vecCompiler struct {
	schema *tuple.Schema
	nbuf   int
	nstr   int
	nzone  int
}

func (vc *vecCompiler) buf() int { vc.nbuf++; return vc.nbuf - 1 }
func (vc *vecCompiler) str() int { vc.nstr++; return vc.nstr - 1 }

// zone reserves n consecutive verdict slots.
func (vc *vecCompiler) zone(n int) int { vc.nzone += n; return vc.nzone - n }

// compileVecMatch lowers a predicate into a batch program. Every
// expression compiles: shapes without a kernel become interpNode
// leaves.
func compileVecMatch(e Expr, schema *tuple.Schema) *vecProg {
	vc := &vecCompiler{schema: schema}
	root := vc.boolNode(e, func(k tuple.Kind) error {
		return fmt.Errorf("query: predicate yields %s, want BOOL", k)
	})
	return &vecProg{root: root, schema: schema, nbuf: vc.nbuf, nstr: vc.nstr, nzone: vc.nzone}
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
				return &andNode{l: l, r: r, tmp: vc.buf(), zs: vc.zone(2)}
			}
			return &orNode{l: l, r: r, tmpA: vc.buf(), tmpB: vc.buf(), zs: vc.zone(2)}
		case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
			nd = vc.cmp(n)
		}
	case Not:
		x := vc.boolNode(n.X, func(k tuple.Kind) error {
			return fmt.Errorf("query: NOT needs BOOL, got %s", k)
		})
		return &notNode{x: x, tmp: vc.buf(), zs: vc.zone(1)}
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

// cmp lowers column-vs-constant (either order) and column-vs-column
// comparisons; nil for any other operand shape.
func (vc *vecCompiler) cmp(n Bin) vecNode {
	op := n.Op
	if c, ok := colRef(n.L, vc.schema); ok {
		if v, isConst := constant(n.R); isConst {
			return vc.colLit(c, op, v, false)
		}
		if c2, ok2 := colRef(n.R, vc.schema); ok2 {
			return vc.colCol(c, op, c2)
		}
		return nil
	}
	if v, isConst := constant(n.L); isConst {
		if c, ok := colRef(n.R, vc.schema); ok {
			return vc.colLit(c, flipCmp(op), v, true)
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
		nd := &numLitNode{c: c, op: op, lit: b, check: c.kind == tuple.KindFloat, err: incomparable}
		if nd.check {
			nd.zs = vc.zone(1)
		}
		return nd
	case c.kind == tuple.KindString && lit.Kind() == tuple.KindString:
		s := lit.AsString()
		return &strTableNode{idx: c.idx, slot: vc.str(), pred: func(x string) bool {
			return cmpDecide(op, cmpString(x, s))
		}, op: op, lits: []string{s}}
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

// in lowers `column IN (constants)` to a hash-set probe (numeric values
// key by their float64 image, matching Compare's cross-kind equality);
// nil for any other shape.
func (vc *vecCompiler) in(n In) vecNode {
	c, ok := colRef(n.X, vc.schema)
	if !ok {
		return nil
	}
	list := make([]tuple.Value, len(n.List))
	for i, it := range n.List {
		if list[i], ok = constant(it); !ok {
			return nil
		}
	}
	switch {
	case numericKind(c.kind):
		set := make(map[float64]struct{}, len(list))
		for _, v := range list {
			if f, ok := v.Numeric(); ok && !math.IsNaN(f) {
				set[f] = struct{}{}
			}
		}
		return &numInNode{c: c, set: set}
	case c.kind == tuple.KindString:
		set := make(map[string]struct{}, len(list))
		lits := make([]string, 0, len(list))
		for _, v := range list {
			if v.Kind() == tuple.KindString {
				set[v.AsString()] = struct{}{}
				lits = append(lits, v.AsString())
			}
		}
		return &strTableNode{idx: c.idx, slot: vc.str(), pred: func(x string) bool {
			_, hit := set[x]
			return hit
		}, op: OpEq, lits: lits}
	}
	return nil
}

// --- matcher --------------------------------------------------------

// BatchMatcher is one execution's batch-program state: scratch
// selection bitmaps, per-segment string translate tables, the current
// segment's verdicts and, once an interpreted leaf has run, the scratch
// row such leaves decode into. It is not safe for concurrent use;
// executors create one per shard scan.
type BatchMatcher struct {
	prog   *vecProg // nil = no WHERE clause
	base   []uint64
	out    []uint64
	bufs   [][]uint64
	tabSeg []uint64
	tabs   [][]bool
	zv     []zfact   // verdict slots (all 0, "some", until Zone)
	zbuf   [8]zfact  // zv's backing for small programs
	root   zfact     // the root's decided verdict
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
		m.zv = m.zbuf[:min(prog.nzone, len(m.zbuf))]
		if prog.nzone > len(m.zbuf) {
			m.zv = make([]zfact, prog.nzone)
		}
	}
	return m
}

// Zone arms the matcher for the segment z summarises: every node's
// verdict is decided once here, and the Match calls over the segment's
// batches act on them. It reports whether the root is none — no live
// row can match, and the scan may skip the segment even when a row
// would have errored. Call it before each segment's batches: verdicts
// hold only for the segment they were decided over.
func (m *BatchMatcher) Zone(z ZoneView) (skip bool) {
	if m.prog == nil {
		return false
	}
	f := m.prog.root.zone(m, z)
	m.root = f.decided()
	return f&zNone != 0
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
	errRow, err := runZoned(m.prog.root, m.root, m, b, sel, out)
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
