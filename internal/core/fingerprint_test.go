package core

import (
	"context"
	"testing"

	"repro/internal/constraint"
	"repro/internal/table"
)

func fpInstance() Input {
	r1 := table.NewRelation("R1", table.NewSchema(
		table.IntCol("pid"), table.StrCol("Rel"), table.IntCol("hid")))
	r1.MustAppend(table.Int(1), table.String("Owner"), table.Null())
	r1.MustAppend(table.Int(2), table.String("Spouse"), table.Null())
	r2 := table.NewRelation("R2", table.NewSchema(
		table.IntCol("hid"), table.StrCol("Area")))
	r2.MustAppend(table.Int(10), table.String("North"))
	r2.MustAppend(table.Int(11), table.String("South"))
	cc, err := constraint.ParseCC("cc north: count(Area = 'North') = 1")
	if err != nil {
		panic(err)
	}
	dc, err := constraint.ParseDC("dc one_owner: deny t1.Rel = 'Owner' & t2.Rel = 'Owner'")
	if err != nil {
		panic(err)
	}
	return Input{R1: r1, R2: r2, K1: "pid", K2: "hid", FK: "hid",
		CCs: []constraint.CC{cc}, DCs: []constraint.DC{dc}}
}

func TestFingerprintStable(t *testing.T) {
	a, err := Fingerprint(fpInstance(), Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fingerprint(fpInstance(), Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same instance hashed differently: %x vs %x", a, b)
	}
}

func TestFingerprintIgnoresWorkersAndNames(t *testing.T) {
	base, _ := Fingerprint(fpInstance(), Options{Seed: 7})
	par, _ := Fingerprint(fpInstance(), Options{Seed: 7, Workers: 8})
	if base != par {
		t.Errorf("Workers changed the key: output is byte-identical across pool sizes")
	}
	renamed := fpInstance()
	renamed.CCs[0].Name = "something_else"
	renamed.DCs[0].Name = ""
	rn, _ := Fingerprint(renamed, Options{Seed: 7})
	if base != rn {
		t.Errorf("constraint names changed the key; they never change the output")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base, _ := Fingerprint(fpInstance(), Options{Seed: 7})
	seen := map[[32]byte]string{base: "base"}
	check := func(label string, in Input, opt Options) {
		t.Helper()
		k, err := Fingerprint(in, opt)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("%s collides with %s", label, prev)
		}
		seen[k] = label
	}

	check("seed", fpInstance(), Options{Seed: 8})
	check("mode", fpInstance(), Options{Seed: 7, Mode: ModeILPOnly})
	check("random-fk", fpInstance(), Options{Seed: 7, RandomFK: true})

	row := fpInstance()
	row.R1.MustAppend(table.Int(3), table.String("Owner"), table.Null())
	check("extra R1 row", row, Options{Seed: 7})

	cell := fpInstance()
	cell.R2.Set(0, "Area", table.String("East"))
	check("changed R2 cell", cell, Options{Seed: 7})

	cons := fpInstance()
	cons.CCs[0].Target = 2
	check("changed CC target", cons, Options{Seed: 7})

	noDC := fpInstance()
	noDC.DCs = nil
	check("dropped DC", noDC, Options{Seed: 7})

	keys := fpInstance()
	keys.FK = "pid"
	check("different FK column", keys, Options{Seed: 7})
}

func TestFingerprintNilRelation(t *testing.T) {
	in := fpInstance()
	in.R2 = nil
	if _, err := Fingerprint(in, Options{}); err == nil {
		t.Fatal("want error for nil relation")
	}
}

// sfpInstance builds a richer instance for structural-fingerprint
// property tests: several CCs and DCs over a census-shaped schema.
func sfpInstance(nCC int, _ int64) Input {
	in := fpInstance()
	for i := 0; i < nCC; i++ {
		cc, err := constraint.ParseCC("cc: count(Rel = 'Owner', Area = 'North') = " + fmtInt(int64(10+i)))
		if err != nil {
			panic(err)
		}
		in.CCs = append(in.CCs, cc)
	}
	return in
}

func fmtInt(v int64) string {
	return string([]byte{byte('0' + v/10), byte('0' + v%10)})
}

func mustSFP(t *testing.T, in Input, opt Options) [32]byte {
	t.Helper()
	k, err := StructuralFingerprint(in, opt)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestStructuralFingerprintOrderInvariance: reordering constraint
// declarations or schema columns must not change the structural key, and
// changing the row data must not either.
func TestStructuralFingerprintOrderInvariance(t *testing.T) {
	opt := Options{Seed: 7}
	base := mustSFP(t, sfpInstance(4, 1), opt)

	// Constraint declaration order.
	perm := sfpInstance(4, 1)
	perm.CCs[0], perm.CCs[3] = perm.CCs[3], perm.CCs[0]
	perm.CCs[1], perm.CCs[2] = perm.CCs[2], perm.CCs[1]
	if got := mustSFP(t, perm, opt); got != base {
		t.Errorf("CC declaration order changed the structural key")
	}

	// Column declaration order (same columns, different schema order).
	reord := sfpInstance(4, 1)
	r1 := table.NewRelation("R1", table.NewSchema(
		table.StrCol("Rel"), table.IntCol("pid"), table.IntCol("hid")))
	r1.MustAppend(table.String("Owner"), table.Int(1), table.Null())
	reord.R1 = r1
	if got := mustSFP(t, reord, opt); got != base {
		t.Errorf("column declaration order changed the structural key")
	}

	// Row data: excluded entirely.
	data := sfpInstance(4, 1)
	data.R1 = data.R1.Clone()
	data.R1.Set(0, "Rel", table.String("Spouse"))
	data.R1.MustAppend(table.Int(99), table.String("Child"), table.Null())
	if got := mustSFP(t, data, opt); got != base {
		t.Errorf("row data changed the structural key")
	}

	// Relation names: excluded.
	named := sfpInstance(4, 1)
	named.R1 = named.R1.Clone()
	named.R1.Name = "Persons2026"
	if got := mustSFP(t, named, opt); got != base {
		t.Errorf("relation name changed the structural key")
	}

	// Constraint names: excluded.
	cn := sfpInstance(4, 1)
	cn.CCs[0].Name = "renamed"
	cn.DCs[0].Name = ""
	if got := mustSFP(t, cn, opt); got != base {
		t.Errorf("constraint names changed the structural key")
	}

	// Workers: excluded (parallelism never changes output or structure).
	if got := mustSFP(t, sfpInstance(4, 1), Options{Seed: 7, Workers: 8}); got != base {
		t.Errorf("Options.Workers changed the structural key")
	}
}

// TestStructuralFingerprintSensitivity: bounds (CC targets), mode, seed,
// order, predicates, and schema content must all change the key.
func TestStructuralFingerprintSensitivity(t *testing.T) {
	opt := Options{Seed: 7}
	base := mustSFP(t, sfpInstance(4, 1), opt)
	seen := map[[32]byte]string{base: "base"}
	check := func(name string, k [32]byte) {
		t.Helper()
		if prev, dup := seen[k]; dup {
			t.Errorf("%s collided with %s: the structural key must be sensitive to it", name, prev)
		}
		seen[k] = name
	}

	bound := sfpInstance(4, 1)
	bound.CCs[0].Target++
	check("CC bound (target)", mustSFP(t, bound, opt))

	pred := sfpInstance(4, 1)
	pred.CCs[0].Pred.Atoms[0].Val = table.String("South")
	check("CC predicate", mustSFP(t, pred, opt))

	check("mode", mustSFP(t, sfpInstance(4, 1), Options{Mode: ModeILPOnly, Seed: 7}))
	check("seed", mustSFP(t, sfpInstance(4, 1), Options{Seed: 8}))
	check("order", mustSFP(t, sfpInstance(4, 1), Options{Seed: 7, Order: OrderInput}))

	fk := sfpInstance(4, 1)
	fk.FK = "pid"
	check("FK column", mustSFP(t, fk, opt))

	col := sfpInstance(4, 1)
	r1 := table.NewRelation("R1", table.NewSchema(
		table.IntCol("pid"), table.StrCol("Rel"), table.IntCol("Age"), table.IntCol("hid")))
	col.R1 = r1
	check("schema columns", mustSFP(t, col, opt))
}

// TestPlanRemapMatchesDirectClassification: solving with a plan compiled
// from a permuted declaration of the same constraints must match a plain
// solve byte for byte (the remap path).
func TestPlanRemapMatchesDirectClassification(t *testing.T) {
	in := censusInput(t, 40, 16, true, false)
	opt := Options{Seed: 3}

	perm := in
	perm.CCs = append([]constraint.CC(nil), in.CCs...)
	for i, j := 0, len(perm.CCs)-1; i < j; i, j = i+1, j-1 {
		perm.CCs[i], perm.CCs[j] = perm.CCs[j], perm.CCs[i]
	}
	plan, err := CompilePlan(perm, opt)
	if err != nil {
		t.Fatal(err)
	}
	kIn, err := StructuralFingerprint(in, opt)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Key() != kIn {
		t.Fatalf("permuted constraints produced a different structural key")
	}

	st := NewSessionState()
	withPlan, err := SolveSessionContext(context.Background(), in, opt, st, Changes{Full: true}, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Solve(in, opt)
	if err != nil {
		t.Fatal(err)
	}
	if resultFingerprint(withPlan) != resultFingerprint(direct) {
		t.Fatalf("plan-assisted solve differs from direct solve")
	}
	if !withPlan.Stats.PlanReused {
		t.Errorf("plan was not reused despite matching key")
	}
}
