package table

import "fmt"

// Type is the declared type of a column.
type Type uint8

// The supported column types.
const (
	TypeInt Type = iota
	TypeString
)

func (t Type) String() string {
	switch t {
	case TypeInt:
		return "int"
	case TypeString:
		return "string"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Column is a named, typed schema column.
type Column struct {
	Name string
	Type Type
}

// IntCol is shorthand for an integer column.
func IntCol(name string) Column { return Column{Name: name, Type: TypeInt} }

// StrCol is shorthand for a string column.
func StrCol(name string) Column { return Column{Name: name, Type: TypeString} }

// Schema is an ordered list of columns with O(1) name lookup. Schemas are
// immutable after construction; derive new ones with Extend or Project.
type Schema struct {
	cols  []Column
	index map[string]int
}

// MakeSchema builds a schema from cols, or reports a column name that
// appears twice. Schemas read from input are built with it.
func MakeSchema(cols ...Column) (*Schema, error) {
	s := &Schema{cols: append([]Column(nil), cols...), index: make(map[string]int, len(cols))}
	for i, c := range s.cols {
		if _, dup := s.index[c.Name]; dup {
			return nil, fmt.Errorf("table: duplicate column %q", c.Name)
		}
		s.index[c.Name] = i
	}
	return s, nil
}

// NewSchema is MakeSchema for schemas the code itself defines. It panics on
// a duplicate column name, which there always indicates a programming
// error.
func NewSchema(cols ...Column) *Schema {
	s, err := MakeSchema(cols...)
	if err != nil {
		panic(err.Error())
	}
	return s
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.cols) }

// Col returns the i-th column.
func (s *Schema) Col(i int) Column { return s.cols[i] }

// Index returns the position of the named column and whether it exists.
func (s *Schema) Index(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// MustIndex returns the position of the named column, panicking if absent.
func (s *Schema) MustIndex(name string) int {
	i, ok := s.index[name]
	if !ok {
		panic(fmt.Sprintf("table: unknown column %q", name))
	}
	return i
}

// Has reports whether the schema contains the named column.
func (s *Schema) Has(name string) bool {
	_, ok := s.index[name]
	return ok
}

// Names returns the column names in order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.cols))
	for i, c := range s.cols {
		out[i] = c.Name
	}
	return out
}

// Columns returns a copy of the column list.
func (s *Schema) Columns() []Column { return append([]Column(nil), s.cols...) }

// Extend returns a new schema with extra columns appended.
func (s *Schema) Extend(extra ...Column) *Schema {
	return NewSchema(append(s.Columns(), extra...)...)
}

// Project returns a new schema containing only the named columns, in the
// given order. It returns an error if a name is unknown.
func (s *Schema) Project(names ...string) (*Schema, error) {
	cols := make([]Column, 0, len(names))
	for _, n := range names {
		i, ok := s.index[n]
		if !ok {
			return nil, fmt.Errorf("table: project: unknown column %q", n)
		}
		cols = append(cols, s.cols[i])
	}
	return NewSchema(cols...), nil
}

// Drop returns a new schema without the named columns.
func (s *Schema) Drop(names ...string) *Schema {
	drop := make(map[string]bool, len(names))
	for _, n := range names {
		drop[n] = true
	}
	cols := make([]Column, 0, len(s.cols))
	for _, c := range s.cols {
		if !drop[c.Name] {
			cols = append(cols, c)
		}
	}
	return NewSchema(cols...)
}

// Equal reports whether two schemas have identical columns in order.
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
