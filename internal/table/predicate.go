package table

import (
	"fmt"
	"strings"
)

// Op is a comparison operator in a selection atom.
type Op uint8

// The comparison operators supported in selection predicates. Cardinality
// constraints use {=, <, >, <=, >=}; denial constraints additionally use !=.
const (
	OpEq Op = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Apply evaluates `a o b` under the Value ordering. Comparisons against
// null are false for every operator (matching SQL's null semantics closely
// enough for this library: a missing cell never satisfies a selection).
func (o Op) Apply(a, b Value) bool {
	if a.IsNull() || b.IsNull() {
		return false
	}
	c := Compare(a, b)
	switch o {
	case OpEq:
		return c == 0
	case OpNe:
		return c != 0
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	case OpGe:
		return c >= 0
	}
	return false
}

// Atom is a single comparison `Col Op Val` against a constant.
type Atom struct {
	Col string
	Op  Op
	Val Value
}

func (a Atom) String() string {
	return a.Col + " " + a.Op.String() + " " + quoteValue(a.Val)
}

// Predicate is a conjunction of atoms. The zero Predicate is the always-true
// selection.
type Predicate struct {
	Atoms []Atom
}

// And returns a conjunctive predicate over the given atoms.
func And(atoms ...Atom) Predicate { return Predicate{Atoms: atoms} }

// Eq builds an equality atom.
func Eq(col string, v Value) Atom { return Atom{Col: col, Op: OpEq, Val: v} }

// Between returns the pair of atoms lo <= col <= hi.
func Between(col string, lo, hi int64) []Atom {
	return []Atom{
		{Col: col, Op: OpGe, Val: Int(lo)},
		{Col: col, Op: OpLe, Val: Int(hi)},
	}
}

// Eval reports whether the row (under schema s) satisfies every atom.
// Atoms referring to columns absent from the schema evaluate to false.
func (p Predicate) Eval(s *Schema, row []Value) bool {
	for _, a := range p.Atoms {
		j, ok := s.Index(a.Col)
		if !ok {
			return false
		}
		if !a.Op.Apply(row[j], a.Val) {
			return false
		}
	}
	return true
}

// BoundAtom is an Atom with its column resolved to a schema position.
type BoundAtom struct {
	Col int
	Op  Op
	Val Value
}

// BoundPredicate is a Predicate bound to one schema: column names resolved
// to positions once, so evaluation over a row is slice indexing plus value
// compares — no map lookups. Produce one with Predicate.Bind; for fully
// typed evaluation over immutable data see Columnar.Bind.
type BoundPredicate struct {
	atoms []BoundAtom
	never bool // some atom referenced a column absent from the schema
}

// Bind resolves the predicate's column references against s. Atoms over
// columns absent from s make the bound predicate constant-false, matching
// Eval's unknown-column rule.
func (p Predicate) Bind(s *Schema) BoundPredicate {
	bp := BoundPredicate{atoms: make([]BoundAtom, 0, len(p.Atoms))}
	for _, a := range p.Atoms {
		j, ok := s.Index(a.Col)
		if !ok {
			return BoundPredicate{never: true}
		}
		bp.atoms = append(bp.atoms, BoundAtom{Col: j, Op: a.Op, Val: a.Val})
	}
	return bp
}

// IsNever reports whether the bound predicate can match no row.
func (bp *BoundPredicate) IsNever() bool { return bp.never }

// Eval reports whether the row satisfies every atom. It is equivalent to
// Predicate.Eval under the schema the predicate was bound to.
func (bp *BoundPredicate) Eval(row []Value) bool {
	if bp.never {
		return false
	}
	for i := range bp.atoms {
		a := &bp.atoms[i]
		if !a.Op.Apply(row[a.Col], a.Val) {
			return false
		}
	}
	return true
}

// Columns returns the distinct column names referenced, in first-use order.
func (p Predicate) Columns() []string {
	seen := make(map[string]bool)
	var out []string
	for _, a := range p.Atoms {
		if !seen[a.Col] {
			seen[a.Col] = true
			out = append(out, a.Col)
		}
	}
	return out
}

// Restrict returns the sub-predicate containing only atoms over columns for
// which keep returns true.
func (p Predicate) Restrict(keep func(col string) bool) Predicate {
	var atoms []Atom
	for _, a := range p.Atoms {
		if keep(a.Col) {
			atoms = append(atoms, a)
		}
	}
	return Predicate{Atoms: atoms}
}

// IsTrue reports whether the predicate has no atoms (always true).
func (p Predicate) IsTrue() bool { return len(p.Atoms) == 0 }

// WithAtoms returns a new predicate with extra atoms appended.
func (p Predicate) WithAtoms(extra ...Atom) Predicate {
	atoms := make([]Atom, 0, len(p.Atoms)+len(extra))
	atoms = append(atoms, p.Atoms...)
	atoms = append(atoms, extra...)
	return Predicate{Atoms: atoms}
}

func (p Predicate) String() string {
	if p.IsTrue() {
		return "true"
	}
	parts := make([]string, len(p.Atoms))
	for i, a := range p.Atoms {
		parts[i] = a.String()
	}
	return strings.Join(parts, " & ")
}

func quoteValue(v Value) string {
	if v.Kind() == KindString {
		return "'" + v.Str() + "'"
	}
	return v.String()
}
