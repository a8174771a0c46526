package metrics

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/constraint"
	"repro/internal/table"
)

// checkQuality asserts that every measure equals its row-major reference
// exactly: == on each float64, equal violating-row sets and per-DC counts.
func checkQuality(t *testing.T, vjoin *table.Relation, ccs []constraint.CC, r1hat *table.Relation, fk string, dcs []constraint.DC) {
	t.Helper()
	got, want := CCErrors(vjoin, ccs), refCCErrors(vjoin, ccs)
	if len(got) != len(want) {
		t.Fatalf("CCErrors: %d errors, reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("CCErrors[%d] = %v, reference %v (%s)", i, got[i], want[i], ccs[i])
		}
	}
	viol, wantViol := DCViolations(r1hat, fk, dcs), refDCViolations(r1hat, fk, dcs)
	if !maps.Equal(viol, wantViol) {
		t.Fatalf("DCViolations = %v, reference %v", sortedRows(viol), sortedRows(wantViol))
	}
	frac := DCErrorFraction(r1hat, fk, dcs)
	if want := refDCErrorFraction(r1hat, fk, dcs); frac != want {
		t.Fatalf("DCErrorFraction = %v, reference %v", frac, want)
	}
	rep, wantRep := ReportDCs(r1hat, fk, dcs), refReportDCs(r1hat, fk, dcs)
	if !slices.Equal(rep.PerDC, wantRep.PerDC) || !maps.Equal(rep.Violating, wantRep.Violating) || rep.Rows != wantRep.Rows {
		t.Fatalf("ReportDCs = %v %v %d, reference %v %v %d",
			rep.PerDC, sortedRows(rep.Violating), rep.Rows, wantRep.PerDC, sortedRows(wantRep.Violating), wantRep.Rows)
	}
	if rep.Fraction() != frac {
		t.Fatalf("ReportDCs fraction %v != DCErrorFraction %v", rep.Fraction(), frac)
	}
}

func sortedRows(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for i := range set {
		out = append(out, i)
	}
	slices.Sort(out)
	return out
}

// qualityCols are the non-FK columns of the randomized relations.
var qualityCols = []string{"a", "b", "s", "u"}

// randomValue draws an atom constant: in-domain values, out-of-domain ones
// (an int past the range, strings between and after the dictionary's
// entries) and null.
func randomValue(rng *rand.Rand) table.Value {
	switch rng.Intn(7) {
	case 0:
		return table.Null()
	case 1, 2:
		return table.Int(int64(rng.Intn(8) - 3))
	case 3:
		return table.Int(100)
	case 4, 5:
		return table.String(string(rune('a' + rng.Intn(5))))
	default:
		return table.String([]string{"ab", "~"}[rng.Intn(2)])
	}
}

// randomCell draws a well-typed cell: null one time in six.
func randomCell(rng *rand.Rand, typ table.Type, domain int) table.Value {
	switch {
	case rng.Intn(6) == 0:
		return table.Null()
	case typ == table.TypeInt:
		return table.Int(int64(rng.Intn(domain)))
	default:
		return table.String(string(rune('a' + rng.Intn(domain))))
	}
}

// randomCol picks a schema column, the FK column, or an unknown one.
func randomCol(rng *rand.Rand) string {
	switch rng.Intn(12) {
	case 0:
		return "nope"
	case 1:
		return "fk"
	default:
		return qualityCols[rng.Intn(len(qualityCols))]
	}
}

// randomQualityCase builds a relation with nulls, repeated, singleton and
// null FK groups and (half the time) kind-mixed cells written with SetAt,
// plus CCs with up to three disjuncts and K = 2 / K = 3 DCs whose atoms
// cover every operator, string ranges, unknown columns and offsets.
func randomQualityCase(rng *rand.Rand) (*table.Relation, []constraint.CC, []constraint.DC) {
	fkType := table.Type(rng.Intn(2))
	schema := table.NewSchema(table.IntCol("a"), table.IntCol("b"), table.StrCol("s"), table.StrCol("u"),
		table.Column{Name: "fk", Type: fkType})
	r := table.NewRelation("q", schema)
	nRows, nGroups := rng.Intn(40), 1+rng.Intn(10)
	for i := 0; i < nRows; i++ {
		r.MustAppend(randomCell(rng, table.TypeInt, 6), randomCell(rng, table.TypeInt, 6),
			randomCell(rng, table.TypeString, 5), randomCell(rng, table.TypeString, 5),
			randomCell(rng, fkType, nGroups))
	}
	if nRows > 0 && rng.Intn(2) == 0 {
		for k := 0; k < 3; k++ {
			i, j := rng.Intn(nRows), rng.Intn(schema.Len())
			if schema.Col(j).Type == table.TypeInt {
				r.SetAt(i, j, table.String("c"))
			} else {
				r.SetAt(i, j, table.Int(2))
			}
		}
	}
	atom := func() table.Atom {
		return table.Atom{Col: randomCol(rng), Op: table.Op(rng.Intn(6)), Val: randomValue(rng)}
	}
	pred := func() table.Predicate {
		var p table.Predicate
		for k := rng.Intn(4); k > 0; k-- {
			p.Atoms = append(p.Atoms, atom())
		}
		return p
	}
	var ccs []constraint.CC
	for k := rng.Intn(6); k > 0; k-- {
		cc := constraint.CC{Pred: pred(), Target: int64(rng.Intn(15))}
		for d := rng.Intn(3); d > 0; d-- {
			cc.OrElse = append(cc.OrElse, pred())
		}
		ccs = append(ccs, cc)
	}
	var dcs []constraint.DC
	for k := rng.Intn(5); k > 0; k-- {
		dc := constraint.DC{K: 2 + rng.Intn(2)}
		for n := rng.Intn(4); n > 0; n-- {
			a := atom()
			dc.Unary = append(dc.Unary, constraint.UnaryAtom{Var: rng.Intn(dc.K), Col: a.Col, Op: a.Op, Val: a.Val})
		}
		for n := rng.Intn(3); n > 0; n-- {
			dc.Binary = append(dc.Binary, constraint.BinaryAtom{
				LVar: rng.Intn(dc.K), LCol: randomCol(rng), Op: table.Op(rng.Intn(6)),
				RVar: rng.Intn(dc.K), RCol: randomCol(rng), Offset: []int64{0, 0, 1, -2, 5}[rng.Intn(5)],
			})
		}
		dcs = append(dcs, dc)
	}
	return r, ccs, dcs
}

// TestQualityMatchesReferenceRandomized holds the columnar measures to the
// row-major reference on randomized relations and constraint sets.
func TestQualityMatchesReferenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 2000; trial++ {
		r, ccs, dcs := randomQualityCase(rng)
		t.Run(fmt.Sprint(trial), func(t *testing.T) {
			checkQuality(t, r, ccs, r, "fk", dcs)
		})
	}
}

// TestQualityMatchesReferenceOnCensus holds the measures to the reference
// on the serving benchmark's instance family, solved by the hybrid (no DC
// violations) and by both baselines (about half of R̂1 violating).
func TestQualityMatchesReferenceOnCensus(t *testing.T) {
	for _, c := range censusSolved(t) {
		t.Run(c.name, func(t *testing.T) {
			checkQuality(t, c.res.VJoin, c.in.CCs, c.res.R1Hat, c.in.FK, c.in.DCs)
			n := len(DCViolations(c.res.R1Hat, c.in.FK, c.in.DCs))
			if (n == 0) != (c.name == "hybrid") {
				t.Fatalf("%d violating rows: want none from the hybrid and some from each baseline", n)
			}
		})
	}
}

// fuzzRelation decodes a relation of at most 16 rows over (a int, b int,
// s string, fk int) from data, one byte per cell: x%8 == 0 is null, 7 a
// cell of the other kind written with SetAt, anything else a small value.
func fuzzRelation(data []byte) *table.Relation {
	schema := table.NewSchema(table.IntCol("a"), table.IntCol("b"), table.StrCol("s"), table.IntCol("fk"))
	r := table.NewRelation("f", schema)
	w := schema.Len()
	n := min(len(data)/w, 16)
	type mixed struct {
		i, j int
		v    table.Value
	}
	var later []mixed
	for i := 0; i < n; i++ {
		row := make([]table.Value, w)
		for j := range row {
			x := data[i*w+j]
			isInt := schema.Col(j).Type == table.TypeInt
			switch {
			case x%8 == 0:
			case x%8 == 7 && isInt:
				later = append(later, mixed{i, j, table.String(string(rune('a' + x/8%4)))})
			case x%8 == 7:
				later = append(later, mixed{i, j, table.Int(int64(x / 8 % 5))})
			case isInt:
				row[j] = table.Int(int64(x/8%7) - 2)
			default:
				row[j] = table.String(string(rune('a' + x/8%4)))
			}
		}
		r.MustAppend(row...)
	}
	for _, m := range later {
		r.SetAt(m.i, m.j, m.v)
	}
	return r
}

// FuzzQualityMeasures decodes a small relation from the fuzz bytes, parses
// CC and DC text through the constraint DSL, and holds every measure to
// the row-major reference.
func FuzzQualityMeasures(f *testing.F) {
	f.Add([]byte{9, 17, 10, 9, 25, 33, 18, 9, 41, 49, 10, 17, 7, 15, 23, 9, 0, 8, 7, 0},
		"cc: count(a >= 0, s = 'b') = 3\n"+
			"cc: count(s = 'a' | a < 1 | b in [0,2]) = 2\n"+
			"cc: count(s > 'a', nope = 1) = 1\n"+
			"dc: deny t1.s = 'a' & t2.s = 'a'\n"+
			"dc: deny t1.a < t2.a - 1 & t3.s != 'c'\n"+
			"dc: deny t1.b >= t2.a + 2 & t2.s <= 'b'\n")
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 1, 2, 3, 4}, "cc: count() = 5\ndc: deny t2.a = t1.b\n")
	f.Fuzz(func(t *testing.T, data []byte, src string) {
		ccs, dcs, err := constraint.ParseConstraints(strings.NewReader(src))
		if err != nil {
			return
		}
		for _, dc := range dcs {
			if dc.K > 3 {
				return // enumeration is |group|^K; keep every input fast
			}
		}
		r := fuzzRelation(data)
		checkQuality(t, r, ccs, r, "fk", dcs)
	})
}
