// Package metrics implements the error measures of §6.1: the relative CC
// error |ĉ − c| / max(10, c) per cardinality constraint, and the DC error
// as the fraction of R̂1 tuples involved in at least one denial-constraint
// violation.
//
// The measures are an independent recount of the output relations, built
// on the table package's read-optimized layer. CCErrors snapshots the join
// view's CC columns into a table.Columnar and counts every disjunct through
// its shortest posting list. The DC measures share one walk (scanDCs): R̂1
// rows get dense FK group ids, each DC variable's candidates come from a
// columnar Select over its unary atoms, and assignments are enumerated from
// the first variable's candidates within their own group. Snapshots are
// built per call and never cached, so a measure always reflects the
// relation it is given.
package metrics

import (
	"sort"

	"repro/internal/constraint"
	"repro/internal/table"
)

// CCErrors returns the relative error of every CC measured on the final
// join view. Disjunctive CCs count rows satisfying any disjunct once.
func CCErrors(vjoin *table.Relation, ccs []constraint.CC) []float64 {
	out := make([]float64, len(ccs))
	if len(ccs) == 0 {
		return out
	}
	// Every column an atom reads must be captured: an uncaptured column
	// binds as constant-false. Duplicates and unknown names are ignored.
	var cols []string
	for _, cc := range ccs {
		for _, a := range cc.Pred.Atoms {
			cols = append(cols, a.Col)
		}
		for _, d := range cc.OrElse {
			for _, a := range d.Atoms {
				cols = append(cols, a.Col)
			}
		}
	}
	cv := table.NewColumnar(vjoin, cols...)
	var mark []int32 // mark[r] == epoch: row r already counted for CC epoch-1
	for i, cc := range ccs {
		n := 0
		if !cc.IsDisjunctive() {
			n = cv.Count(cv.Bind(cc.Pred))
		} else {
			if mark == nil {
				mark = make([]int32, vjoin.Len())
			}
			epoch := int32(i + 1)
			for _, d := range cc.Disjuncts() {
				cv.SelectFunc(cv.Bind(d), func(r int) bool {
					if mark[r] != epoch {
						mark[r] = epoch
						n++
					}
					return true
				})
			}
		}
		out[i] = RelativeError(int64(n), cc.Target)
	}
	return out
}

// RelativeError is |got − want| / max(10, want), the measure used in
// Figures 8–10 (the threshold of 10 guards small targets).
func RelativeError(got, want int64) float64 {
	d := got - want
	if d < 0 {
		d = -d
	}
	den := want
	if den < 10 {
		den = 10
	}
	return float64(d) / float64(den)
}

// Median returns the median of xs (0 for empty input).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Mean returns the mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) by nearest-rank on the
// sorted values.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(q * float64(len(s)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// DCViolations finds all tuples of r1hat involved in at least one DC
// violation. Tuples are grouped by their FK value (the implicit conjunct of
// every foreign-key DC), and each DC's explicit predicate is evaluated over
// ordered assignments of distinct tuples within each group. It returns the
// set of violating row indices.
func DCViolations(r1hat *table.Relation, fkCol string, dcs []constraint.DC) map[int]bool {
	return scanDCs(r1hat, fkCol, dcs).set()
}

// DCErrorFraction is the §6.1 DC error: |violating tuples| / |R1|.
func DCErrorFraction(r1hat *table.Relation, fkCol string, dcs []constraint.DC) float64 {
	if r1hat.Len() == 0 {
		return 0
	}
	return float64(scanDCs(r1hat, fkCol, dcs).total) / float64(r1hat.Len())
}

// dcScan is the result of one walk of a DC set over R̂1.
type dcScan struct {
	perDC    []int  // distinct violating rows per DC
	violates []bool // violates[i]: row i violates some DC
	total    int    // number of rows with violates set
}

// set returns the violating rows as a set.
func (s dcScan) set() map[int]bool {
	out := make(map[int]bool, s.total)
	for i, v := range s.violates {
		if v {
			out[i] = true
		}
	}
	return out
}

// scanDCs walks every DC over r1hat grouped by the FK column.
func scanDCs(r1hat *table.Relation, fkCol string, dcs []constraint.DC) dcScan {
	fk := r1hat.Schema().MustIndex(fkCol)
	n := r1hat.Len()
	s := dcScan{perDC: make([]int, len(dcs)), violates: make([]bool, n)}
	if len(dcs) == 0 || n == 0 {
		return s
	}
	w := dcWalker{r: r1hat, scan: &s, mark: make([]int32, n)}
	w.group(fk)
	var cols []string
	maxK := 0
	for _, dc := range dcs {
		for _, a := range dc.Unary {
			cols = append(cols, a.Col)
		}
		maxK = max(maxK, dc.K)
	}
	cv := table.NewColumnar(r1hat, cols...)
	w.isCand = make([][]int32, maxK)
	for v := 1; v < maxK; v++ {
		w.isCand[v] = make([]int32, n)
	}
	assign, tuples := make([]int, maxK), make([][]table.Value, maxK)
	bound := constraint.BindDCs(dcs, r1hat.Schema())
	for di := range bound {
		dc := &bound[di]
		w.dc, w.stamp = dc, int32(di+1)
		w.assign, w.tuples = assign[:dc.K], tuples[:dc.K]
		if !w.candidates(cv, dcs[di]) {
			continue
		}
		cv.SelectFunc(cv.Bind(dcs[di].VarPredicate(0)), func(r0 int) bool {
			g := w.gid[r0]
			if g < 0 {
				return true // unassigned tuples cannot violate FK DCs
			}
			grp := w.rows[w.start[g]:w.start[g+1]]
			if len(grp) < 2 || len(grp) < dc.K {
				return true
			}
			w.assign[0] = r0
			w.extend(1, grp)
			return true
		})
	}
	return s
}

// dcWalker enumerates one DC at a time over FK groups, marking violating
// rows into a dcScan. Every buffer is sized once per scan and reused across
// DCs and groups; per-DC state is told apart by stamp instead of cleared.
type dcWalker struct {
	r    *table.Relation
	scan *dcScan

	// Rows with a non-null FK, grouped: group g holds rows[start[g]:start[g+1]]
	// in ascending order. gid[i] is row i's dense group id (ids assigned in
	// row order), or -1 when its FK is null.
	gid   []int32
	start []int32
	rows  []int32

	dc     *constraint.BoundDC
	stamp  int32     // current DC's index + 1
	isCand [][]int32 // isCand[v][i] == stamp: row i passes variable v's unary atoms
	mark   []int32   // mark[i] == stamp: row i already counted for the current DC
	assign []int
	tuples [][]table.Value
}

// group assigns dense FK group ids in row order and lays the rows of each
// group out contiguously (a counting sort over the ids).
func (w *dcWalker) group(fk int) {
	n := w.r.Len()
	w.gid = make([]int32, n)
	ids := make(map[table.Value]int32)
	for i := 0; i < n; i++ {
		v := w.r.At(i, fk)
		if v.IsNull() {
			w.gid[i] = -1
			continue
		}
		g, ok := ids[v]
		if !ok {
			g = int32(len(ids))
			ids[v] = g
		}
		w.gid[i] = g
	}
	// start[g] counts group g's rows, then accumulates into the group's end
	// offset; filling rows backwards walks each offset down to its start.
	w.start = make([]int32, len(ids)+1)
	for _, g := range w.gid {
		if g >= 0 {
			w.start[g]++
		}
	}
	sum := int32(0)
	for g := 0; g < len(ids); g++ {
		sum += w.start[g]
		w.start[g] = sum
	}
	w.start[len(ids)] = sum
	w.rows = make([]int32, sum)
	for i := n - 1; i >= 0; i-- {
		if g := w.gid[i]; g >= 0 {
			w.start[g]--
			w.rows[w.start[g]] = int32(i)
		}
	}
}

// candidates stamps the candidate rows of variables 1..K-1 of the current
// DC. It reports false when some variable has none, so no assignment can
// violate the DC.
func (w *dcWalker) candidates(cv *table.Columnar, dc constraint.DC) bool {
	for v := 1; v < dc.K; v++ {
		found := false
		is := w.isCand[v]
		cv.SelectFunc(cv.Bind(dc.VarPredicate(v)), func(i int) bool {
			is[i] = w.stamp
			found = true
			return true
		})
		if !found {
			return false
		}
	}
	return true
}

// extend assigns variables v..K-1 from the group's candidate rows, distinct
// from the rows already assigned, and marks every row of an assignment the
// DC's binary atoms hold on. Candidates guarantee the unary atoms.
func (w *dcWalker) extend(v int, grp []int32) {
	if v == len(w.assign) {
		for i, ri := range w.assign {
			w.tuples[i] = w.r.Row(ri)
		}
		if w.dc.HoldsBinary(w.tuples...) {
			for _, ri := range w.assign {
				w.hit(ri)
			}
		}
		return
	}
	is := w.isCand[v]
next:
	for _, r := range grp {
		ri := int(r)
		if is[ri] != w.stamp {
			continue
		}
		for _, prev := range w.assign[:v] {
			if prev == ri {
				continue next
			}
		}
		w.assign[v] = ri
		w.extend(v+1, grp)
	}
}

// hit records that row i violates the current DC.
func (w *dcWalker) hit(i int) {
	if w.mark[i] != w.stamp {
		w.mark[i] = w.stamp
		w.scan.perDC[w.stamp-1]++
	}
	if !w.scan.violates[i] {
		w.scan.violates[i] = true
		w.scan.total++
	}
}
