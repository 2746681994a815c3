package tuple

import (
	"fmt"
	"strings"
)

// Column describes one user attribute of a relation.
type Column struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of columns. The system columns t (insertion
// tick) and f (freshness) are implicit on every relation and never
// appear in a Schema; the query layer exposes them under the reserved
// names "_t" and "_f".
type Schema struct {
	cols  []Column
	index map[string]int
}

// Reserved system column names exposed to predicates.
const (
	SysTick  = "_t"
	SysFresh = "_f"
	SysID    = "_id"
)

// NewSchema builds a schema from columns. Column names must be unique,
// non-empty, and must not collide with the reserved system names.
func NewSchema(cols ...Column) (*Schema, error) {
	s := &Schema{
		cols:  make([]Column, len(cols)),
		index: make(map[string]int, len(cols)),
	}
	copy(s.cols, cols)
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("tuple: column %d has empty name", i)
		}
		if c.Name == SysTick || c.Name == SysFresh || c.Name == SysID {
			return nil, fmt.Errorf("tuple: column name %q is reserved", c.Name)
		}
		if c.Kind == KindInvalid {
			return nil, fmt.Errorf("tuple: column %q has invalid kind", c.Name)
		}
		if _, dup := s.index[c.Name]; dup {
			return nil, fmt.Errorf("tuple: duplicate column %q", c.Name)
		}
		s.index[c.Name] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error, for tests and examples.
func MustSchema(cols ...Column) *Schema {
	s, err := NewSchema(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// ParseSchema parses a compact schema description like
// "device STRING, temp FLOAT, ok BOOL" used by the CLI tools.
func ParseSchema(spec string) (*Schema, error) {
	parts := strings.Split(spec, ",")
	cols := make([]Column, 0, len(parts))
	for _, p := range parts {
		fields := strings.Fields(p)
		if len(fields) != 2 {
			return nil, fmt.Errorf("tuple: bad column spec %q (want \"name KIND\")", strings.TrimSpace(p))
		}
		k, err := ParseKind(fields[1])
		if err != nil {
			return nil, err
		}
		cols = append(cols, Column{Name: fields[0], Kind: k})
	}
	return NewSchema(cols...)
}

// Len returns the number of user columns.
func (s *Schema) Len() int { return len(s.cols) }

// Column returns the i'th column.
func (s *Schema) Column(i int) Column { return s.cols[i] }

// Columns returns a copy of the column list.
func (s *Schema) Columns() []Column {
	out := make([]Column, len(s.cols))
	copy(out, s.cols)
	return out
}

// Index returns the position of the named column, or -1 if absent.
func (s *Schema) Index(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// Equal reports whether two schemas have identical column sequences.
func (s *Schema) Equal(o *Schema) bool {
	if s.Len() != o.Len() {
		return false
	}
	for i := range s.cols {
		if s.cols[i] != o.cols[i] {
			return false
		}
	}
	return true
}

// String renders the schema in the ParseSchema format.
func (s *Schema) String() string {
	var b strings.Builder
	for i, c := range s.cols {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name)
		b.WriteByte(' ')
		b.WriteString(c.Kind.String())
	}
	return b.String()
}

// Validate checks that row values match the schema's kinds and arity.
func (s *Schema) Validate(vals []Value) error {
	if len(vals) != len(s.cols) {
		return fmt.Errorf("tuple: row has %d values, schema %q wants %d", len(vals), s, len(s.cols))
	}
	for i, v := range vals {
		if v.Kind() != s.cols[i].Kind {
			return fmt.Errorf("tuple: column %q wants %s, got %s", s.cols[i].Name, s.cols[i].Kind, v.Kind())
		}
	}
	return nil
}

// ValidateColumns checks that cols holds the schema's columns, in
// order, as typed views of at least n rows each, with every STRING code
// inside its dictionary.
func (s *Schema) ValidateColumns(cols []ColView, n int) error {
	if len(cols) != len(s.cols) {
		return fmt.Errorf("tuple: %d columns, schema %q wants %d", len(cols), s, len(s.cols))
	}
	for i, c := range cols {
		if c.Kind != s.cols[i].Kind {
			return fmt.Errorf("tuple: column %q wants %s, got %s", s.cols[i].Name, s.cols[i].Kind, c.Kind)
		}
		have := 0
		switch c.Kind {
		case KindInt:
			have = len(c.Ints)
		case KindFloat:
			have = len(c.Floats)
		case KindBool:
			have = len(c.Bools)
		case KindString:
			have = len(c.Codes)
			for _, code := range c.Codes[:min(n, have)] {
				if int(code) >= len(c.Dict) {
					return fmt.Errorf("tuple: column %q: code %d outside its %d-entry dictionary", s.cols[i].Name, code, len(c.Dict))
				}
			}
		}
		if have < n {
			return fmt.Errorf("tuple: column %q has %d rows, want %d", s.cols[i].Name, have, n)
		}
	}
	return nil
}
