package query

import (
	"fmt"
	"strconv"
	"strings"

	"fungusdb/internal/tuple"
)

// Parse compiles WHERE-clause source into an expression tree. The
// grammar, loosest binding first:
//
//	expr   := or
//	or     := and (OR and)*
//	and    := not (AND not)*
//	not    := NOT not | cmp
//	cmp    := add ((= | != | <> | < | <= | > | >=) add)?
//	add    := mul ((+ | -) mul)*
//	mul    := unary ((* | / | %) unary)*
//	unary  := - unary | primary
//	primary:= INT | FLOAT | STRING | TRUE | FALSE | ident | ( expr )
//
// An empty source parses to the constant TRUE (select everything),
// matching the paper's unqualified "each query Q". Placeholders are
// rejected: a bare WHERE expression has no bind step, so `?` is only
// legal inside a prepared statement (ParseStatement).
func Parse(src string) (Expr, error) {
	e, params, err := parseWhere(src)
	if err != nil {
		return nil, err
	}
	if params > 0 {
		return nil, fmt.Errorf("query: expression has %d '?' placeholder(s); prepare it as a statement to bind them", params)
	}
	return e, nil
}

// parseWhere parses a bare WHERE expression and reports how many `?`
// placeholders it contains.
func parseWhere(src string) (Expr, int, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, 0, err
	}
	p := &parser{toks: toks}
	if p.peek().kind == tokEOF {
		return Lit{V: tuple.Bool(true)}, 0, nil
	}
	e, err := p.parseOr()
	if err != nil {
		return nil, 0, err
	}
	if t := p.peek(); t.kind != tokEOF {
		return nil, 0, fmt.Errorf("query: unexpected %q at %d", t.text, t.pos)
	}
	return e, p.params, nil
}

type parser struct {
	toks   []token
	pos    int
	params int // `?` placeholders seen so far; indices assign in parse order
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokOr {
		p.next()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = Bin{Op: OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokAnd {
		p.next()
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = Bin{Op: OpAnd, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.peek().kind == tokNot {
		p.next()
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return Not{X: x}, nil
	}
	return p.parseCmp()
}

var cmpOps = map[string]BinOp{
	"=": OpEq, "!=": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
}

func (p *parser) parseCmp() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind == tokOp {
		if op, ok := cmpOps[t.text]; ok {
			p.next()
			r, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return Bin{Op: op, L: l, R: r}, nil
		}
		return l, nil
	}
	// Postfix keyword operators: [NOT] LIKE / IN / BETWEEN.
	negate := false
	if t.kind == tokNot && p.keywordAt(p.pos+1) != "" {
		p.next()
		negate = true
		t = p.peek()
	}
	var e Expr
	switch strings.ToUpper(t.text) {
	case "LIKE":
		if t.kind != tokIdent {
			break
		}
		p.next()
		pat, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		e = Like{X: l, Pattern: pat}
	case "IN":
		if t.kind != tokIdent {
			break
		}
		p.next()
		if open := p.next(); open.kind != tokLParen {
			return nil, fmt.Errorf("query: IN needs '(' at %d", open.pos)
		}
		var list []Expr
		for {
			item, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			list = append(list, item)
			sep := p.next()
			if sep.kind == tokRParen {
				break
			}
			if sep.kind != tokComma {
				return nil, fmt.Errorf("query: IN list wants ',' or ')' at %d", sep.pos)
			}
		}
		e = In{X: l, List: list}
	case "BETWEEN":
		if t.kind != tokIdent {
			break
		}
		p.next()
		lo, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		if and := p.next(); and.kind != tokAnd {
			return nil, fmt.Errorf("query: BETWEEN wants AND at %d", and.pos)
		}
		hi, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		// x BETWEEN lo AND hi desugars to x >= lo AND x <= hi; the
		// expression tree is pure so double evaluation is safe.
		e = Bin{Op: OpAnd,
			L: Bin{Op: OpGe, L: l, R: lo},
			R: Bin{Op: OpLe, L: l, R: hi},
		}
	}
	if e == nil {
		if negate {
			return nil, fmt.Errorf("query: NOT at %d must precede LIKE/IN/BETWEEN here", t.pos)
		}
		return l, nil
	}
	if negate {
		return Not{X: e}, nil
	}
	return e, nil
}

// keywordAt reports the postfix keyword at token index i ("LIKE", "IN",
// "BETWEEN"), or "" when the token is not one of them.
func (p *parser) keywordAt(i int) string {
	if i >= len(p.toks) {
		return ""
	}
	t := p.toks[i]
	if t.kind != tokIdent {
		return ""
	}
	switch strings.ToUpper(t.text) {
	case "LIKE", "IN", "BETWEEN":
		return strings.ToUpper(t.text)
	}
	return ""
}

func (p *parser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokOp || (t.text != "+" && t.text != "-") {
			return l, nil
		}
		p.next()
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		op := OpAdd
		if t.text == "-" {
			op = OpSub
		}
		l = Bin{Op: op, L: l, R: r}
	}
}

func (p *parser) parseMul() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokOp || (t.text != "*" && t.text != "/" && t.text != "%") {
			return l, nil
		}
		p.next()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		var op BinOp
		switch t.text {
		case "*":
			op = OpMul
		case "/":
			op = OpDiv
		default:
			op = OpMod
		}
		l = Bin{Op: op, L: l, R: r}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if t := p.peek(); t.kind == tokOp && t.text == "-" {
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Neg{X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.next()
	switch t.kind {
	case tokInt:
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("query: bad integer %q at %d", t.text, t.pos)
		}
		return Lit{V: tuple.Int(n)}, nil
	case tokFloat:
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, fmt.Errorf("query: bad float %q at %d", t.text, t.pos)
		}
		return Lit{V: tuple.Float(f)}, nil
	case tokString:
		return Lit{V: tuple.String_(t.text)}, nil
	case tokTrue:
		return Lit{V: tuple.Bool(true)}, nil
	case tokFalse:
		return Lit{V: tuple.Bool(false)}, nil
	case tokIdent:
		return Col{Name: t.text}, nil
	case tokQMark:
		p.params++
		return Param{Index: p.params - 1}, nil
	case tokLParen:
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if closing := p.next(); closing.kind != tokRParen {
			return nil, fmt.Errorf("query: missing ')' at %d", closing.pos)
		}
		return e, nil
	case tokEOF:
		return nil, fmt.Errorf("query: unexpected end of expression")
	default:
		return nil, fmt.Errorf("query: unexpected %q at %d", t.text, t.pos)
	}
}
