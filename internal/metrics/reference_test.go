package metrics

import (
	"repro/internal/constraint"
	"repro/internal/table"
)

// This file keeps the row-major implementations the measures had before
// they moved onto table.Columnar, verbatim apart from their names. They
// are the reference the differential tests and FuzzQualityMeasures hold
// the columnar kernels to, bit for bit.

// refCCErrors counts every CC row by row through CC.CountIn.
func refCCErrors(vjoin *table.Relation, ccs []constraint.CC) []float64 {
	out := make([]float64, len(ccs))
	for i, cc := range ccs {
		out[i] = RelativeError(cc.CountIn(vjoin), cc.Target)
	}
	return out
}

// refDCViolations finds all tuples of r1hat involved in at least one DC
// violation. Tuples are grouped by their FK value (the implicit conjunct of
// every foreign-key DC), and each DC's explicit predicate — bound to the
// schema once — is evaluated over ordered tuple assignments within each
// group. It returns the set of violating row indices.
func refDCViolations(r1hat *table.Relation, fkCol string, dcs []constraint.DC) map[int]bool {
	groups := r1hat.GroupByValue(fkCol)
	violating := make(map[int]bool)
	bound := constraint.BindDCs(dcs, r1hat.Schema())
	for key, rows := range groups {
		if len(rows) < 2 {
			continue
		}
		if key.IsNull() {
			continue // unassigned tuples cannot violate FK DCs
		}
		for di := range bound {
			if len(rows) < bound[di].K {
				continue
			}
			refMarkViolations(r1hat, &bound[di], rows, violating)
		}
	}
	return violating
}

// refMarkViolations enumerates ordered assignments of distinct group rows
// to the DC's variables (with unary-atom pre-filtering) and marks every
// member of a satisfying set. Candidates guarantee the unary atoms, so the
// leaf check evaluates only the binary ones.
func refMarkViolations(r *table.Relation, dc *constraint.BoundDC, rows []int, out map[int]bool) {
	cands := make([][]int, dc.K)
	for v := 0; v < dc.K; v++ {
		for _, ri := range rows {
			if dc.UnaryMatch(v, r.Row(ri)) {
				cands[v] = append(cands[v], ri)
			}
		}
		if len(cands[v]) == 0 {
			return
		}
	}
	assign := make([]int, dc.K)
	tuples := make([][]table.Value, dc.K)
	var rec func(v int)
	rec = func(v int) {
		if v == dc.K {
			for i, ri := range assign {
				tuples[i] = r.Row(ri)
			}
			if dc.HoldsBinary(tuples...) {
				for _, ri := range assign {
					out[ri] = true
				}
			}
			return
		}
		for _, ri := range cands[v] {
			dup := false
			for _, prev := range assign[:v] {
				if prev == ri {
					dup = true
					break
				}
			}
			if !dup {
				assign[v] = ri
				rec(v + 1)
			}
		}
	}
	rec(0)
}

// refDCErrorFraction is the §6.1 DC error: |violating tuples| / |R1|.
func refDCErrorFraction(r1hat *table.Relation, fkCol string, dcs []constraint.DC) float64 {
	if r1hat.Len() == 0 {
		return 0
	}
	return float64(len(refDCViolations(r1hat, fkCol, dcs))) / float64(r1hat.Len())
}

// refReportDCs evaluates every DC separately over r1hat grouped by FK value.
func refReportDCs(r1hat *table.Relation, fkCol string, dcs []constraint.DC) *DCReport {
	rep := &DCReport{PerDC: make([]int, len(dcs)), Violating: make(map[int]bool), Rows: r1hat.Len()}
	groups := r1hat.GroupByValue(fkCol)
	bound := constraint.BindDCs(dcs, r1hat.Schema())
	for di := range bound {
		per := make(map[int]bool)
		for key, rows := range groups {
			if len(rows) < bound[di].K || key.IsNull() {
				continue
			}
			refMarkViolations(r1hat, &bound[di], rows, per)
		}
		rep.PerDC[di] = len(per)
		for t := range per {
			rep.Violating[t] = true
		}
	}
	return rep
}
