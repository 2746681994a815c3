package query

import (
	"fmt"

	"fungusdb/internal/tuple"
)

// Mode selects query semantics.
type Mode uint8

const (
	// Peek is the classical non-destructive read, the paper's "before"
	// world and the baseline in experiment E4.
	Peek Mode = iota
	// Consume implements the second natural law: "all tuples in R
	// satisfying P are discarded immediately" once answered.
	Consume
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Consume {
		return "consume"
	}
	return "peek"
}

// Predicate is a WHERE expression validated against one schema. It is
// immutable and safe for concurrent use. Compilation also lowers the
// expression into the batch program and segment prune checks the
// engine's scan paths use (see vec.go, prune.go).
type Predicate struct {
	expr   Expr
	schema *tuple.Schema
	src    string
	pruner *Pruner
	vec    *vecProg
}

// Compile parses src and checks every column reference against schema.
// Empty src compiles to the always-true predicate.
func Compile(src string, schema *tuple.Schema) (*Predicate, error) {
	e, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if err := checkCols(e, schema); err != nil {
		return nil, err
	}
	return newPredicate(e, schema, src), nil
}

func newPredicate(e Expr, schema *tuple.Schema, src string) *Predicate {
	return &Predicate{
		expr:   e,
		schema: schema,
		src:    src,
		pruner: compilePrune(e, schema),
		vec:    compileVecMatch(e, schema),
	}
}

// MustCompile is Compile that panics on error.
func MustCompile(src string, schema *tuple.Schema) *Predicate {
	p, err := Compile(src, schema)
	if err != nil {
		panic(err)
	}
	return p
}

// FromExpr wraps an already-parsed expression (e.g. a SelectStmt's
// WHERE clause) as a schema-checked predicate. A nil expression yields
// the always-true predicate.
func FromExpr(e Expr, schema *tuple.Schema) (*Predicate, error) {
	if e == nil {
		e = Lit{V: tuple.Bool(true)}
	}
	if err := checkCols(e, schema); err != nil {
		return nil, err
	}
	return newPredicate(e, schema, e.String()), nil
}

func checkCols(e Expr, schema *tuple.Schema) error {
	switch n := e.(type) {
	case Col:
		if n.Name == tuple.SysTick || n.Name == tuple.SysFresh || n.Name == tuple.SysID {
			return nil
		}
		if schema.Index(n.Name) < 0 {
			return fmt.Errorf("query: unknown column %q (schema: %s)", n.Name, schema)
		}
	case Bin:
		if err := checkCols(n.L, schema); err != nil {
			return err
		}
		return checkCols(n.R, schema)
	case Not:
		return checkCols(n.X, schema)
	case Neg:
		return checkCols(n.X, schema)
	case Like:
		if err := checkCols(n.X, schema); err != nil {
			return err
		}
		return checkCols(n.Pattern, schema)
	case In:
		if err := checkCols(n.X, schema); err != nil {
			return err
		}
		for _, e := range n.List {
			if err := checkCols(e, schema); err != nil {
				return err
			}
		}
	}
	return nil
}

// Source returns the original WHERE source text.
func (p *Predicate) Source() string { return p.src }

// Expr exposes the compiled tree (read-only) for explainers.
func (p *Predicate) Expr() Expr { return p.expr }

// Result is a query answer set A plus bookkeeping the experiments use.
type Result struct {
	Schema  *tuple.Schema
	Tuples  []tuple.Tuple // answer set, insertion order
	Scanned int           // live tuples examined
	Mode    Mode
}

// Len returns the answer set size.
func (r *Result) Len() int { return len(r.Tuples) }

// FreshnessMass returns the summed freshness of the answer, the metric
// E9 charts: answers over rotting data weigh less.
func (r *Result) FreshnessMass() float64 {
	var m float64
	for i := range r.Tuples {
		m += float64(r.Tuples[i].F)
	}
	return m
}

// MeanFreshness returns the average freshness of the answer, or 0 for an
// empty result.
func (r *Result) MeanFreshness() float64 {
	if len(r.Tuples) == 0 {
		return 0
	}
	return r.FreshnessMass() / float64(len(r.Tuples))
}

// Bytes returns the approximate answer payload size.
func (r *Result) Bytes() int {
	n := 0
	for i := range r.Tuples {
		n += r.Tuples[i].Size()
	}
	return n
}

// Project returns the values of the named columns for row i, resolving
// system columns. It is the target-expression T of Q(T,R,P) in its
// simplest useful form.
func (r *Result) Project(i int, cols []string) ([]tuple.Value, error) {
	tp := &r.Tuples[i]
	out := make([]tuple.Value, len(cols))
	env := TupleEnv{Schema: r.Schema, Tuple: tp}
	for j, c := range cols {
		v, err := env.Lookup(c)
		if err != nil {
			return nil, err
		}
		out[j] = v
	}
	return out, nil
}

// Agg accumulates the running aggregates of one numeric column. The
// zero value is ready to use.
type Agg struct {
	n        uint64
	sum      float64
	min, max float64
}

// Observe folds one value into the aggregate; non-numeric values are
// rejected.
func (a *Agg) Observe(v tuple.Value) error {
	f, ok := v.Numeric()
	if !ok {
		return fmt.Errorf("query: aggregate over non-numeric %s", v.Kind())
	}
	if a.n == 0 || f < a.min {
		a.min = f
	}
	if a.n == 0 || f > a.max {
		a.max = f
	}
	a.n++
	a.sum += f
	return nil
}

// Count returns the number of observations.
func (a *Agg) Count() uint64 { return a.n }

// Sum returns the observation total.
func (a *Agg) Sum() float64 { return a.sum }

// Min returns the smallest observation, or 0 before any Observe.
func (a *Agg) Min() float64 { return a.min }

// Max returns the largest observation, or 0 before any Observe.
func (a *Agg) Max() float64 { return a.max }

// Mean returns the average observation, or 0 before any Observe.
func (a *Agg) Mean() float64 {
	if a.n == 0 {
		return 0
	}
	return a.sum / float64(a.n)
}

// Aggregate computes Agg over one column of a result. The column may be
// a system column.
func (r *Result) Aggregate(col string) (*Agg, error) {
	var a Agg
	for i := range r.Tuples {
		env := TupleEnv{Schema: r.Schema, Tuple: &r.Tuples[i]}
		v, err := env.Lookup(col)
		if err != nil {
			return nil, err
		}
		if err := a.Observe(v); err != nil {
			return nil, err
		}
	}
	return &a, nil
}
