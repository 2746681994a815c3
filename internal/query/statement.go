package query

// Statement is one parsed query in the prepared-statement API: a
// SELECT (optionally CONSUME) over a table extent. A Statement is pure
// syntax — it knows nothing about any schema. Compiling it against a
// schema with Plan performs every static check (column resolution,
// grouping rules, aggregate typing) once, so Execute never pays for
// validation and malformed statements fail before they run.
type Statement struct {
	sel *SelectStmt
	src string
}

// ParseStatement parses a SELECT statement (see ParseSelect for the
// grammar). `?` placeholders may appear anywhere an expression may;
// they bind positionally at execute time.
func ParseStatement(src string) (*Statement, error) {
	stmt, err := ParseSelect(src)
	if err != nil {
		return nil, err
	}
	return &Statement{sel: stmt, src: src}, nil
}

// Source returns the original statement text.
func (s *Statement) Source() string { return s.src }

// From returns the table the statement reads.
func (s *Statement) From() string { return s.sel.From }

// NumParams returns the number of `?` placeholders the statement binds.
func (s *Statement) NumParams() int { return s.sel.Params }

// Select exposes the parsed SELECT.
func (s *Statement) Select() *SelectStmt { return s.sel }
