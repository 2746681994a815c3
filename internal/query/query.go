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

// Predicate is a WHERE expression validated against one schema and
// compiled to the batch program, for callers that select rows without a
// statement around them (catalog `targeted` fungi, stream rules).
// Queries do not go through it: they prepare a statement into a Plan.
// It is immutable and safe for concurrent use; the matchers it hands
// out are not.
type Predicate struct {
	vec *vecProg
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
	return &Predicate{vec: compileVecMatch(e, schema)}, nil
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
