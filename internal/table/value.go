// Package table implements the relational substrate used by the rest of the
// library: typed values, schemas, relations, conjunctive selection
// predicates, foreign-key joins, CSV I/O, and the binary relation encoding
// that instance fingerprints hash and durable snapshots hold.
//
// The package has a two-layer design. The mutable layer is Relation, an
// in-memory row store of dynamically typed Values with a name-to-index
// schema; the solver builds and fills views through it. The read-optimized
// layer is Columnar, an immutable column-major snapshot with
// dictionary-encoded string columns and per-(column, value) posting lists;
// predicates compile against it (Columnar.Bind) into typed integer
// comparisons, and Count/Select over equality-bearing predicates walk
// posting lists instead of scanning. Between the two sits
// Predicate.Bind(*Schema), which resolves column names once for callers
// that evaluate over row slices. Hot paths snapshot their immutable columns
// into a Columnar and compile their predicates once; everything else uses
// the row layer directly.
package table

import (
	"fmt"
	"strconv"
)

// Kind identifies the runtime type stored in a Value.
type Kind uint8

// The supported value kinds. KindNull marks a missing cell (e.g. the FK
// column of R1 before imputation, or the B columns of V_Join before phase I).
const (
	KindNull Kind = iota
	KindInt
	KindString
)

func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindString:
		return "string"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed cell value. The zero Value is the null value.
// Value is comparable, so it can be used directly as a map key; two Values
// are == iff they have the same kind and payload.
type Value struct {
	kind Kind
	i    int64
	s    string
}

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// String returns a string value.
func String(s string) Value { return Value{kind: KindString, s: s} }

// Null returns the null value (a missing cell).
func Null() Value { return Value{} }

// Kind reports the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is the null value.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int returns the integer payload. It is only meaningful when Kind is
// KindInt; other kinds return 0.
func (v Value) Int() int64 { return v.i }

// Str returns the string payload. It is only meaningful when Kind is
// KindString; other kinds return "".
func (v Value) Str() string { return v.s }

// String renders the value for display and CSV output. Null renders as the
// empty string.
func (v Value) String() string {
	switch v.kind {
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindString:
		return v.s
	default:
		return ""
	}
}

// Compare orders two values. Nulls sort first, then integers (numerically),
// then strings (lexicographically). Values of different kinds order by kind.
// The result is -1, 0 or +1.
func Compare(a, b Value) int {
	if a.kind != b.kind {
		if a.kind < b.kind {
			return -1
		}
		return 1
	}
	switch a.kind {
	case KindInt:
		switch {
		case a.i < b.i:
			return -1
		case a.i > b.i:
			return 1
		}
	case KindString:
		switch {
		case a.s < b.s:
			return -1
		case a.s > b.s:
			return 1
		}
	}
	return 0
}

// Less reports whether a orders strictly before b under Compare.
func Less(a, b Value) bool { return Compare(a, b) < 0 }

// ParseValue parses s into a value of type t. The empty string parses to
// null for either type.
func ParseValue(s string, t Type) (Value, error) {
	if s == "" {
		return Null(), nil
	}
	switch t {
	case TypeInt:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Null(), fmt.Errorf("table: parse int %q: %w", s, err)
		}
		return Int(i), nil
	case TypeString:
		return String(s), nil
	default:
		return Null(), fmt.Errorf("table: parse value: unknown type %v", t)
	}
}
