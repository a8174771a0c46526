package constraint

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/table"
)

// randBindRelation builds a small relation with int and string columns and
// sprinkled nulls.
func randBindRelation(rng *rand.Rand) *table.Relation {
	r := table.NewRelation("r", table.NewSchema(
		table.IntCol("Age"), table.StrCol("Rel"), table.IntCol("Multi")))
	rels := []string{"Owner", "Spouse", "Child"}
	n := 2 + rng.Intn(12)
	for i := 0; i < n; i++ {
		age := table.Value(table.Int(int64(rng.Intn(80))))
		if rng.Intn(8) == 0 {
			age = table.Null()
		}
		r.MustAppend(age, table.String(rels[rng.Intn(3)]), table.Int(int64(rng.Intn(2))))
	}
	return r
}

func randBindDC(rng *rand.Rand, t *testing.T) DC {
	t.Helper()
	ops := []string{"<", "<=", ">", ">=", "=", "!="}
	rels := []string{"Owner", "Spouse", "Child"}
	var src string
	switch rng.Intn(4) {
	case 0:
		src = fmt.Sprintf("dc: deny t1.Rel = '%s' & t2.Rel = '%s'", rels[rng.Intn(3)], rels[rng.Intn(3)])
	case 1:
		src = fmt.Sprintf("dc: deny t1.Rel = '%s' & t2.Age %s t1.Age - %d",
			rels[rng.Intn(3)], ops[rng.Intn(6)], rng.Intn(30))
	case 2:
		src = fmt.Sprintf("dc: deny t1.Multi = 1 & t2.Age %s t1.Age + %d & t3.Rel = '%s'",
			ops[rng.Intn(6)], rng.Intn(20), rels[rng.Intn(3)])
	default:
		src = fmt.Sprintf("dc: deny t2.Age %s t1.Age", ops[rng.Intn(6)])
	}
	dc, err := ParseDC(src)
	if err != nil {
		t.Fatal(err)
	}
	return dc
}

// TestBoundDCEquivalence pins BoundDC.Holds, BoundDC.UnaryMatch and
// VarPredicate to the unbound DC forms on random relations, DCs, and tuple
// assignments, and Symmetric01 to VarsSymmetric.
func TestBoundDCEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 250; trial++ {
		r := randBindRelation(rng)
		dc := randBindDC(rng, t)
		b := dc.Bind(r.Schema())
		if b.Symmetric01 != dc.VarsSymmetric(0, 1) {
			t.Fatalf("trial %d (%s): Symmetric01 = %v, VarsSymmetric = %v",
				trial, dc, b.Symmetric01, dc.VarsSymmetric(0, 1))
		}
		s := r.Schema()
		for v := 0; v < dc.K; v++ {
			vp := dc.VarPredicate(v)
			for i := 0; i < r.Len(); i++ {
				want := dc.UnaryMatch(v, s, r.Row(i))
				if got := b.UnaryMatch(v, r.Row(i)); got != want {
					t.Fatalf("trial %d (%s): UnaryMatch(t%d, row %d) = %v, want %v", trial, dc, v+1, i, got, want)
				}
				if got := vp.Eval(s, r.Row(i)); got != want {
					t.Fatalf("trial %d (%s): VarPredicate(t%d) on row %d = %v, want %v", trial, dc, v+1, i, got, want)
				}
			}
		}
		for probe := 0; probe < 40; probe++ {
			rows := make([][]table.Value, dc.K)
			for v := range rows {
				rows[v] = r.Row(rng.Intn(r.Len()))
			}
			want := dc.Holds(s, rows...)
			if got := b.Holds(rows...); got != want {
				t.Fatalf("trial %d (%s): Holds = %v, want %v", trial, dc, got, want)
			}
			// When every variable's unary atoms hold, the binary-only leaf
			// check must agree with the full predicate.
			unaryOK := true
			for v := range rows {
				if !b.UnaryMatch(v, rows[v]) {
					unaryOK = false
					break
				}
			}
			if unaryOK {
				if got := b.HoldsBinary(rows...); got != want {
					t.Fatalf("trial %d (%s): HoldsBinary = %v, Holds = %v", trial, dc, got, want)
				}
			}
		}
	}
}

// TestBoundDCMissingColumn: atoms over columns absent from the schema make
// the variable (and any assignment) unsatisfiable, mirroring the unbound
// evaluation.
func TestBoundDCMissingColumn(t *testing.T) {
	r := table.NewRelation("r", table.NewSchema(table.IntCol("Age")))
	r.MustAppend(table.Int(30))
	dc, err := ParseDC("dc: deny t1.Ghost = 1 & t2.Age > 10")
	if err != nil {
		t.Fatal(err)
	}
	b := dc.Bind(r.Schema())
	if b.UnaryMatch(0, r.Row(0)) {
		t.Error("UnaryMatch over a missing column must be false")
	}
	if !b.UnaryMatch(1, r.Row(0)) {
		t.Error("t2 has no atoms over missing columns; its filter must pass")
	}
	if b.Holds(r.Row(0), r.Row(0)) {
		t.Error("Holds with a missing unary column must be false")
	}
}

// TestBoundCCEquivalence pins BoundCC.MatchRow to CC.MatchRow, including
// disjunctive CCs and predicates over unknown columns.
func TestBoundCCEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 200; trial++ {
		r := randBindRelation(rng)
		cc := CC{
			Pred: table.And(table.Atom{Col: "Age", Op: table.Op(rng.Intn(6)), Val: table.Int(int64(rng.Intn(80)))}),
			OrElse: []table.Predicate{
				table.And(table.Eq("Rel", table.String([]string{"Owner", "Spouse", "Ghost"}[rng.Intn(3)]))),
			},
		}
		if rng.Intn(4) == 0 {
			cc.Pred = table.And(table.Eq("NoSuchCol", table.Int(1)))
		}
		b := cc.Bind(r.Schema())
		// A disjunct over an unknown column is constant-false once bound.
		for d, pred := range cc.Disjuncts() {
			bp := pred.Bind(r.Schema())
			known := true
			for _, a := range pred.Atoms {
				if !r.Schema().Has(a.Col) {
					known = false
				}
			}
			if bp.IsNever() == known {
				t.Fatalf("trial %d: disjunct %d IsNever = %v, columns known = %v", trial, d, bp.IsNever(), known)
			}
		}
		s := r.Schema()
		for i := 0; i < r.Len(); i++ {
			want := cc.MatchRow(s, r.Row(i))
			if got := b.MatchRow(r.Row(i)); got != want {
				t.Fatalf("trial %d: MatchRow(row %d) = %v, want %v", trial, i, got, want)
			}
		}
	}
}
