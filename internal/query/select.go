package query

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"

	"fungusdb/internal/tuple"
)

// SelectStmt is a parsed SELECT statement:
//
//	SELECT [CONSUME] <targets> FROM <table>
//	       [WHERE <expr>] [GROUP BY <cols>]
//	       [ORDER BY <col> [ASC|DESC], ...] [LIMIT n | LIMIT ?]
//
// Targets are '*', expressions, or aggregate calls COUNT(*) /
// COUNT(expr) / SUM / AVG / MIN / MAX (expr), optionally aliased with
// AS. The CONSUME keyword selects the paper's second-law semantics:
// everything the statement reads is removed from the extent.
type SelectStmt struct {
	Consume bool
	Targets []SelectTarget
	From    string
	Where   Expr // nil = all
	GroupBy []string
	OrderBy []OrderKey
	Limit   int // 0 = unlimited
	// LimitParam is the placeholder index of a `LIMIT ?`, -1 when the
	// limit is a literal (or absent). The bound value is type-checked
	// (INT, non-negative) at Plan.Bind time.
	LimitParam int
	Params     int // number of `?` placeholders, in parse order
}

// AggKind enumerates aggregate functions.
type AggKind uint8

// Aggregate functions.
const (
	AggNone AggKind = iota
	AggCount
	AggSum
	AggAvg
	AggMin
	AggMax
)

var aggNames = map[string]AggKind{
	"COUNT": AggCount, "SUM": AggSum, "AVG": AggAvg, "MIN": AggMin, "MAX": AggMax,
}

func (a AggKind) String() string {
	for n, k := range aggNames {
		if k == a {
			return n
		}
	}
	return ""
}

// SelectTarget is one output column.
type SelectTarget struct {
	Star  bool    // '*': expand to all schema columns (plain targets only)
	Agg   AggKind // AggNone for plain expressions
	Expr  Expr    // nil for COUNT(*) and Star
	Alias string  // output column name
}

// OrderKey is one ORDER BY element, referencing an output column name.
type OrderKey struct {
	Col  string
	Desc bool
}

// ParseSelect parses a SELECT statement.
func ParseSelect(src string) (*SelectStmt, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	if !p.eatKeyword("SELECT") {
		return nil, fmt.Errorf("query: statement must start with SELECT")
	}
	stmt := &SelectStmt{LimitParam: -1}
	if p.eatKeyword("CONSUME") {
		stmt.Consume = true
	}
	for {
		tgt, err := p.parseTarget()
		if err != nil {
			return nil, err
		}
		stmt.Targets = append(stmt.Targets, tgt)
		if p.peek().kind != tokComma {
			break
		}
		p.next()
	}
	if !p.eatKeyword("FROM") {
		return nil, fmt.Errorf("query: missing FROM at %d", p.peek().pos)
	}
	from := p.next()
	if from.kind != tokIdent {
		return nil, fmt.Errorf("query: FROM wants a table name at %d", from.pos)
	}
	stmt.From = from.text

	if p.eatKeyword("WHERE") {
		w, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	if p.eatKeyword("GROUP") {
		if !p.eatKeyword("BY") {
			return nil, fmt.Errorf("query: GROUP wants BY at %d", p.peek().pos)
		}
		for {
			c := p.next()
			if c.kind != tokIdent {
				return nil, fmt.Errorf("query: GROUP BY wants a column at %d", c.pos)
			}
			stmt.GroupBy = append(stmt.GroupBy, c.text)
			if p.peek().kind != tokComma {
				break
			}
			p.next()
		}
	}
	if p.eatKeyword("ORDER") {
		if !p.eatKeyword("BY") {
			return nil, fmt.Errorf("query: ORDER wants BY at %d", p.peek().pos)
		}
		for {
			c := p.next()
			if c.kind != tokIdent {
				return nil, fmt.Errorf("query: ORDER BY wants a column at %d", c.pos)
			}
			key := OrderKey{Col: c.text}
			if p.eatKeyword("DESC") {
				key.Desc = true
			} else {
				p.eatKeyword("ASC")
			}
			stmt.OrderBy = append(stmt.OrderBy, key)
			if p.peek().kind != tokComma {
				break
			}
			p.next()
		}
	}
	if p.eatKeyword("LIMIT") {
		if p.peek().kind == tokQMark {
			p.next()
			stmt.LimitParam = p.params
			p.params++
		} else {
			n := p.next()
			if n.kind != tokInt {
				return nil, fmt.Errorf("query: LIMIT wants an integer at %d", n.pos)
			}
			v, err := strconv.Atoi(n.text)
			if err != nil || v < 0 {
				return nil, fmt.Errorf("query: bad LIMIT %q", n.text)
			}
			stmt.Limit = v
		}
	}
	if t := p.peek(); t.kind != tokEOF {
		return nil, fmt.Errorf("query: unexpected %q at %d", t.text, t.pos)
	}
	stmt.Params = p.params
	return stmt, nil
}

// eatKeyword consumes the next token when it is the given keyword
// (case-insensitive identifier, or the AND keyword token for "AND").
func (p *parser) eatKeyword(kw string) bool {
	t := p.peek()
	if t.kind == tokIdent && strings.EqualFold(t.text, kw) {
		p.next()
		return true
	}
	return false
}

func (p *parser) parseTarget() (SelectTarget, error) {
	t := p.peek()
	// '*' star target.
	if t.kind == tokOp && t.text == "*" {
		p.next()
		return SelectTarget{Star: true}, nil
	}
	// Aggregate call?
	if t.kind == tokIdent {
		if agg, ok := aggNames[strings.ToUpper(t.text)]; ok && p.toks[p.pos+1].kind == tokLParen {
			p.next()
			p.next() // '('
			tgt := SelectTarget{Agg: agg}
			inner := p.peek()
			if inner.kind == tokOp && inner.text == "*" {
				if agg != AggCount {
					return SelectTarget{}, fmt.Errorf("query: only COUNT accepts '*' at %d", inner.pos)
				}
				p.next()
			} else {
				e, err := p.parseAdd()
				if err != nil {
					return SelectTarget{}, err
				}
				tgt.Expr = e
			}
			if closing := p.next(); closing.kind != tokRParen {
				return SelectTarget{}, fmt.Errorf("query: aggregate missing ')' at %d", closing.pos)
			}
			tgt.Alias = defaultAlias(tgt)
			return p.maybeAlias(tgt)
		}
	}
	e, err := p.parseAdd()
	if err != nil {
		return SelectTarget{}, err
	}
	tgt := SelectTarget{Expr: e, Alias: defaultAlias(SelectTarget{Expr: e})}
	return p.maybeAlias(tgt)
}

func (p *parser) maybeAlias(tgt SelectTarget) (SelectTarget, error) {
	if p.eatKeyword("AS") {
		a := p.next()
		if a.kind != tokIdent {
			return SelectTarget{}, fmt.Errorf("query: AS wants a name at %d", a.pos)
		}
		tgt.Alias = a.text
	}
	return tgt, nil
}

func defaultAlias(tgt SelectTarget) string {
	switch {
	case tgt.Agg != AggNone && tgt.Expr == nil:
		return "count"
	case tgt.Agg != AggNone:
		return strings.ToLower(tgt.Agg.String()) + "(" + tgt.Expr.String() + ")"
	case tgt.Expr != nil:
		if c, ok := tgt.Expr.(Col); ok {
			return c.Name
		}
		return tgt.Expr.String()
	}
	return "*"
}

// Grid is a materialised SELECT result: named output columns and rows
// of values.
type Grid struct {
	Cols []string
	Rows [][]tuple.Value
}

func expandTargets(stmt *SelectStmt, schema *tuple.Schema) ([]SelectTarget, error) {
	var out []SelectTarget
	for _, t := range stmt.Targets {
		if !t.Star {
			if t.Expr != nil {
				if err := checkCols(t.Expr, schema); err != nil {
					return nil, err
				}
			}
			out = append(out, t)
			continue
		}
		if stmt.GroupBy != nil {
			return nil, fmt.Errorf("query: '*' cannot be combined with GROUP BY")
		}
		for _, c := range schema.Columns() {
			out = append(out, SelectTarget{Expr: Col{Name: c.Name}, Alias: c.Name})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("query: empty target list")
	}
	seen := map[string]bool{}
	for _, t := range out {
		if seen[t.Alias] {
			return nil, fmt.Errorf("query: duplicate output column %q (use AS)", t.Alias)
		}
		seen[t.Alias] = true
	}
	return out, nil
}

// projectRow evaluates a plain projection for the tuple behind env.
func projectRow(targets []SelectTarget, env Env, row []tuple.Value) error {
	for j, t := range targets {
		v, err := t.Expr.Eval(env)
		if err != nil {
			return err
		}
		row[j] = v
	}
	return nil
}

// sortGridByKeys stably sorts rows by the given column indices.
func sortGridByKeys(g *Grid, keyIdx []int) {
	slices.SortStableFunc(g.Rows, func(a, b []tuple.Value) int {
		for _, j := range keyIdx {
			if cmp, ok := a[j].Compare(b[j]); ok && cmp != 0 {
				return cmp
			}
		}
		return 0
	})
}

func orderAndLimit(g *Grid, stmt *SelectStmt) error {
	if len(stmt.OrderBy) > 0 {
		keys, err := resolveOrderKeys(stmt.OrderBy, g.Cols)
		if err != nil {
			return err
		}
		// Stable sort through the same key comparison the top-k
		// push-down uses: rows arrive in ID order, so stability makes
		// the total order (keys, ID) — identical to the heaps'.
		var sortErr error
		sort.SliceStable(g.Rows, func(a, b int) bool {
			return rowLess(g.Rows[a], g.Rows[b], keys, false, &sortErr)
		})
		if sortErr != nil {
			return sortErr
		}
	}
	if stmt.Limit > 0 && len(g.Rows) > stmt.Limit {
		g.Rows = g.Rows[:stmt.Limit]
	}
	return nil
}

// Render writes the grid as an aligned text table.
func (g *Grid) Render(w io.Writer) {
	widths := make([]int, len(g.Cols))
	cells := make([][]string, 0, len(g.Rows))
	for i, c := range g.Cols {
		widths[i] = len(c)
	}
	for _, row := range g.Rows {
		line := make([]string, len(row))
		for i, v := range row {
			s := v.String()
			if v.Kind() == tuple.KindString {
				s = v.AsString() // unquoted for display
			}
			line[i] = s
			if len(s) > widths[i] {
				widths[i] = len(s)
			}
		}
		cells = append(cells, line)
	}
	writeLine := func(line []string) {
		var b strings.Builder
		for i, s := range line {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(s)
			if pad := widths[i] - len(s); pad > 0 && i < len(line)-1 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		fmt.Fprintln(w, b.String())
	}
	writeLine(g.Cols)
	for _, line := range cells {
		writeLine(line)
	}
}
