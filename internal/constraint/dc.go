package constraint

import (
	"fmt"
	"strings"

	"repro/internal/table"
)

// UnaryAtom is a condition t_Var.Col ◦ c on a single tuple variable.
type UnaryAtom struct {
	Var int // 0-based tuple-variable index
	Col string
	Op  table.Op
	Val table.Value
}

func (a UnaryAtom) String() string {
	return fmt.Sprintf("t%d.%s %s %v", a.Var+1, a.Col, a.Op, a.Val)
}

// BinaryAtom is a condition t_LVar.LCol ◦ (t_RVar.RCol + Offset) relating
// two tuple variables; Offset supports the paper's age-gap DCs such as
// t2.Age < t1.Age − 50.
type BinaryAtom struct {
	LVar   int
	LCol   string
	Op     table.Op
	RVar   int
	RCol   string
	Offset int64
}

func (a BinaryAtom) String() string {
	off := ""
	if a.Offset > 0 {
		off = fmt.Sprintf(" + %d", a.Offset)
	} else if a.Offset < 0 {
		off = fmt.Sprintf(" - %d", -a.Offset)
	}
	return fmt.Sprintf("t%d.%s %s t%d.%s%s", a.LVar+1, a.LCol, a.Op, a.RVar+1, a.RCol, off)
}

// DC is a foreign-key denial constraint (Def. 2.2):
//
//	∀ t1..tK. ¬( unary ∧ binary ∧ t1.FK = ... = tK.FK )
//
// The trailing FK-equality conjunct is implicit: a set of K tuples sharing
// one FK value violates the DC iff the explicit atoms hold under some
// assignment of the tuples to the variables.
type DC struct {
	Name   string
	K      int // number of tuple variables (≥ 2)
	Unary  []UnaryAtom
	Binary []BinaryAtom
}

func (dc DC) String() string {
	parts := make([]string, 0, len(dc.Unary)+len(dc.Binary)+1)
	for _, a := range dc.Unary {
		parts = append(parts, a.String())
	}
	for _, a := range dc.Binary {
		parts = append(parts, a.String())
	}
	fk := make([]string, dc.K)
	for i := range fk {
		fk[i] = fmt.Sprintf("t%d.FK", i+1)
	}
	parts = append(parts, strings.Join(fk, " = "))
	return "¬( " + strings.Join(parts, " ∧ ") + " )"
}

// Validate checks structural sanity: K ≥ 2 and every atom's variable
// indices in [0, K).
func (dc DC) Validate() error {
	if dc.K < 2 {
		return fmt.Errorf("constraint: DC %q: K = %d, want >= 2", dc.Name, dc.K)
	}
	for _, a := range dc.Unary {
		if a.Var < 0 || a.Var >= dc.K {
			return fmt.Errorf("constraint: DC %q: unary atom var t%d out of range", dc.Name, a.Var+1)
		}
	}
	for _, a := range dc.Binary {
		if a.LVar < 0 || a.LVar >= dc.K || a.RVar < 0 || a.RVar >= dc.K {
			return fmt.Errorf("constraint: DC %q: binary atom vars out of range", dc.Name)
		}
	}
	return nil
}

// Holds evaluates the explicit (non-FK) part φ of the DC for the ordered
// assignment rows[i] ↦ t_{i+1}. All rows share one schema. Atoms touching a
// null cell evaluate to false, so incomplete tuples never conflict.
func (dc DC) Holds(s *table.Schema, rows ...[]Value) bool {
	if len(rows) != dc.K {
		return false
	}
	for _, a := range dc.Unary {
		j, ok := s.Index(a.Col)
		if !ok || !a.Op.Apply(rows[a.Var][j], a.Val) {
			return false
		}
	}
	for _, a := range dc.Binary {
		jl, okL := s.Index(a.LCol)
		jr, okR := s.Index(a.RCol)
		if !okL || !okR {
			return false
		}
		rv := rows[a.RVar][jr]
		if a.Offset != 0 {
			if rv.Kind() != table.KindInt {
				return false
			}
			rv = table.Int(rv.Int() + a.Offset)
		}
		if !a.Op.Apply(rows[a.LVar][jl], rv) {
			return false
		}
	}
	return true
}

// Value is re-exported locally to keep the Holds signature readable.
type Value = table.Value

// UnaryMatch reports whether row satisfies every unary atom of variable v.
// It is the candidate filter used when enumerating conflict edges.
func (dc DC) UnaryMatch(v int, s *table.Schema, row []Value) bool {
	for _, a := range dc.Unary {
		if a.Var != v {
			continue
		}
		j, ok := s.Index(a.Col)
		if !ok || !a.Op.Apply(row[j], a.Val) {
			return false
		}
	}
	return true
}

// VarPredicate returns the conjunction of variable v's unary atoms as a
// selection predicate over one tuple: the candidate filter for v, matching
// exactly the rows UnaryMatch accepts.
func (dc DC) VarPredicate(v int) table.Predicate {
	var atoms []table.Atom
	for _, a := range dc.Unary {
		if a.Var == v {
			atoms = append(atoms, table.Atom{Col: a.Col, Op: a.Op, Val: a.Val})
		}
	}
	return table.Predicate{Atoms: atoms}
}

// VarsSymmetric reports whether swapping two variables leaves the atom set
// unchanged; used to halve edge enumeration for symmetric DCs like
// "no two owners share a home". The comparison is structural (atom structs
// are comparable), so classification allocates nothing beyond two small
// match masks.
func (dc DC) VarsSymmetric(u, v int) bool {
	swap := func(x int) int {
		switch x {
		case u:
			return v
		case v:
			return u
		default:
			return x
		}
	}
	// Multiset equality: every swapped unary atom must match a distinct
	// original atom.
	usedU := make([]bool, len(dc.Unary))
	for _, a := range dc.Unary {
		sw := UnaryAtom{Var: swap(a.Var), Col: a.Col, Op: a.Op, Val: a.Val}
		found := false
		for j, b := range dc.Unary {
			if !usedU[j] && b == sw {
				usedU[j] = true
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	// Atoms with a symmetric operator and no offset (a = b, a != b) are
	// canonicalized with the smaller variable first so that t1.A = t2.A and
	// t2.A = t1.A compare equal.
	canon := func(a BinaryAtom) BinaryAtom {
		if a.Offset == 0 && (a.Op == table.OpEq || a.Op == table.OpNe) && a.LVar > a.RVar {
			return BinaryAtom{LVar: a.RVar, LCol: a.RCol, Op: a.Op, RVar: a.LVar, RCol: a.LCol}
		}
		return a
	}
	usedB := make([]bool, len(dc.Binary))
	for _, a := range dc.Binary {
		sw := canon(BinaryAtom{LVar: swap(a.LVar), LCol: a.LCol, Op: a.Op, RVar: swap(a.RVar), RCol: a.RCol, Offset: a.Offset})
		found := false
		for j, b := range dc.Binary {
			if !usedB[j] && canon(b) == sw {
				usedB[j] = true
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
