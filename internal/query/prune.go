package query

import (
	"fungusdb/internal/tuple"
)

// ZoneView is the pruning read-surface of one storage segment: the
// conservative per-column summaries a Pruner consults before the scan
// touches a single tuple. The storage layer's *storage.ZoneMap
// satisfies it structurally, keeping the two packages decoupled.
//
// Every method is conservative: ok=false (or MayContainString=true)
// means "unknown — scan the segment". Bounds are inclusive and cover a
// superset of the live tuples, so a segment excluded by them provably
// holds no match.
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

// Pruner is the compile-time half of segment pruning: the predicate's
// top-level conjuncts lowered into zone-map checks. Skip(z) == true
// proves no tuple in the summarised segment can satisfy the WHERE
// clause, because some conjunct is unsatisfiable over the segment's
// bounds (or bloom). Conjuncts that cannot be lowered are simply
// absent — pruning only ever under-approximates.
type Pruner struct {
	rules []pruneRule
}

// Skip reports whether the summarised segment can be skipped entirely.
func (p *Pruner) Skip(z ZoneView) bool {
	for _, r := range p.rules {
		if r.skip(z) {
			return true
		}
	}
	return false
}

// pruneRule proves (or fails to prove) one conjunct unsatisfiable over
// a segment summary.
type pruneRule interface {
	skip(z ZoneView) bool
}

// pruneCol addresses one column in a ZoneView.
type pruneCol struct {
	idx int   // schema index for attribute columns
	sys uint8 // 0 = attribute, 1 = _t, 2 = _id
}

func (c pruneCol) bounds(z ZoneView) (lo, hi tuple.Value, ok bool) {
	switch c.sys {
	case 1:
		return z.TickBounds()
	case 2:
		return z.IDBounds()
	}
	return z.Bounds(c.idx)
}

// compilePrune lowers the WHERE tree into a Pruner, or nil when no
// conjunct is prunable. Parameter placeholders must already be folded
// into literals (Bind does); an unbound Param makes its conjunct
// unprunable, nothing worse.
func compilePrune(e Expr, schema *tuple.Schema) *Pruner {
	if e == nil {
		return nil
	}
	var rules []pruneRule
	for _, c := range splitAnd(e) {
		if r := compilePruneRule(c, schema); r != nil {
			rules = append(rules, r)
		}
	}
	if len(rules) == 0 {
		return nil
	}
	return &Pruner{rules: rules}
}

// splitAnd flattens nested AND chains into their conjuncts.
func splitAnd(e Expr) []Expr {
	if b, ok := e.(Bin); ok && b.Op == OpAnd {
		return append(splitAnd(b.L), splitAnd(b.R)...)
	}
	return []Expr{e}
}

// pruneColOf resolves a column reference into a pruneCol; ok=false for
// non-columns and for _f (freshness mutates in place, so segments
// carry no usable bound for it).
func pruneColOf(e Expr, schema *tuple.Schema) (pruneCol, bool) {
	c, ok := e.(Col)
	if !ok {
		return pruneCol{}, false
	}
	switch c.Name {
	case tuple.SysTick:
		return pruneCol{sys: 1}, true
	case tuple.SysID:
		return pruneCol{sys: 2}, true
	case tuple.SysFresh:
		return pruneCol{}, false
	}
	if i := schema.Index(c.Name); i >= 0 {
		return pruneCol{idx: i}, true
	}
	return pruneCol{}, false
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

// compilePruneRule lowers one conjunct, or returns nil when it cannot
// contribute to pruning.
func compilePruneRule(e Expr, schema *tuple.Schema) pruneRule {
	switch n := e.(type) {
	case Bin:
		switch n.Op {
		case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
			if col, ok := pruneColOf(n.L, schema); ok {
				if lit, ok := n.R.(Lit); ok {
					return newCmpRule(col, n.Op, lit.V, schema)
				}
			}
			if col, ok := pruneColOf(n.R, schema); ok {
				if lit, ok := n.L.(Lit); ok {
					return newCmpRule(col, flipCmp(n.Op), lit.V, schema)
				}
			}
		case OpOr:
			l := compilePruneRule(n.L, schema)
			r := compilePruneRule(n.R, schema)
			if l != nil && r != nil {
				return orRule{l, r}
			}
		case OpAnd:
			// Nested AND under an OR branch: any lowered side proves
			// the whole conjunction unsatisfiable.
			l := compilePruneRule(n.L, schema)
			r := compilePruneRule(n.R, schema)
			switch {
			case l != nil && r != nil:
				return anyRule{l, r}
			case l != nil:
				return l
			case r != nil:
				return r
			}
		}
	case In:
		col, ok := pruneColOf(n.X, schema)
		if !ok {
			return nil
		}
		items := make([]tuple.Value, 0, len(n.List))
		for _, it := range n.List {
			lit, ok := it.(Lit)
			if !ok {
				return nil
			}
			items = append(items, lit.V)
		}
		return inRule{col: col, items: items, str: stringCol(col, schema)}
	case Lit:
		// A constant-false conjunct makes every segment skippable.
		if n.V.Kind() == tuple.KindBool && !n.V.AsBool() {
			return falseRule{}
		}
	}
	return nil
}

// stringCol reports whether the pruned column is a STRING attribute
// (the only columns with segment blooms).
func stringCol(c pruneCol, schema *tuple.Schema) bool {
	return c.sys == 0 && schema.Column(c.idx).Kind == tuple.KindString
}

// newCmpRule builds the rule for `col op lit`. String equality also
// consults the segment bloom.
func newCmpRule(col pruneCol, op BinOp, lit tuple.Value, schema *tuple.Schema) pruneRule {
	r := cmpRule{col: col, op: op, lit: lit}
	if op == OpEq && stringCol(col, schema) && lit.Kind() == tuple.KindString {
		return anyRule{r, bloomRule{col: col.idx, s: lit.AsString()}}
	}
	return r
}

// cmpRule proves `col op lit` unsatisfiable from the column bounds.
type cmpRule struct {
	col pruneCol
	op  BinOp
	lit tuple.Value
}

func (r cmpRule) skip(z ZoneView) bool {
	lo, hi, ok := r.col.bounds(z)
	if !ok {
		return false
	}
	cmpLo, okLo := r.lit.Compare(lo)
	cmpHi, okHi := r.lit.Compare(hi)
	if !okLo || !okHi {
		// Incomparable kinds (or NaN): evaluation will error anyway;
		// never prune on them.
		return false
	}
	switch r.op {
	case OpEq:
		return cmpLo < 0 || cmpHi > 0 // lit outside [lo, hi]
	case OpNe:
		return cmpLo == 0 && cmpHi == 0 // every value equals lit
	case OpLt: // col < lit: impossible when min >= lit
		return cmpLo <= 0
	case OpLe: // col <= lit: impossible when min > lit
		return cmpLo < 0
	case OpGt: // col > lit: impossible when max <= lit
		return cmpHi >= 0
	case OpGe: // col >= lit: impossible when max < lit
		return cmpHi > 0
	}
	return false
}

// bloomRule proves a string equality unsatisfiable from the segment
// bloom.
type bloomRule struct {
	col int
	s   string
}

func (r bloomRule) skip(z ZoneView) bool { return !z.MayContainString(r.col, r.s) }

// inRule proves `col IN (lits)` unsatisfiable: every list item must be
// provably absent.
type inRule struct {
	col   pruneCol
	items []tuple.Value
	str   bool // column has a segment bloom
}

func (r inRule) skip(z ZoneView) bool {
	lo, hi, haveBounds := r.col.bounds(z)
	for _, it := range r.items {
		excluded := false
		if haveBounds {
			if cmpLo, ok := it.Compare(lo); ok && cmpLo < 0 {
				excluded = true
			} else if cmpHi, ok := it.Compare(hi); ok && cmpHi > 0 {
				excluded = true
			}
		}
		if !excluded && r.str && it.Kind() == tuple.KindString &&
			!z.MayContainString(r.col.idx, it.AsString()) {
			excluded = true
		}
		if !excluded {
			return false
		}
	}
	return len(r.items) > 0
}

// orRule: a disjunction is unsatisfiable only when every branch is.
type orRule struct{ l, r pruneRule }

func (r orRule) skip(z ZoneView) bool { return r.l.skip(z) && r.r.skip(z) }

// anyRule: any member proving unsatisfiability suffices (conjunctions,
// or independent proofs of the same conjunct).
type anyRule []pruneRule

func (r anyRule) skip(z ZoneView) bool {
	for _, m := range r {
		if m.skip(z) {
			return true
		}
	}
	return false
}

// falseRule: a constant-false predicate matches nothing anywhere.
type falseRule struct{}

func (falseRule) skip(ZoneView) bool { return true }
