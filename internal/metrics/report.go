package metrics

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/constraint"
	"repro/internal/table"
)

// DCReport breaks DC violations down per constraint — the diagnostic view
// a user needs when a baseline or hand-written assignment fails: which
// denial constraints are violated and how many tuples each implicates.
type DCReport struct {
	// PerDC maps DC index to the number of distinct tuples involved in at
	// least one violation of that DC.
	PerDC []int
	// Violating is the union of violating tuple indices across all DCs.
	Violating map[int]bool
	// Total rows examined.
	Rows int
}

// Fraction is the §6.1 DC error of the combined report.
func (r *DCReport) Fraction() float64 {
	if r.Rows == 0 {
		return 0
	}
	return float64(len(r.Violating)) / float64(r.Rows)
}

// String renders the nonzero rows of the report, worst first.
func (r *DCReport) String() string {
	type row struct{ idx, n int }
	var rows []row
	for i, n := range r.PerDC {
		if n > 0 {
			rows = append(rows, row{i, n})
		}
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].n > rows[b].n })
	var b strings.Builder
	fmt.Fprintf(&b, "DC violations: %d/%d tuples (%.4f)\n", len(r.Violating), r.Rows, r.Fraction())
	for _, x := range rows {
		fmt.Fprintf(&b, "  dc[%d]: %d tuples\n", x.idx, x.n)
	}
	return b.String()
}

// ReportDCs evaluates every DC over r1hat grouped by FK value, counting
// each DC's violating tuples in the same walk DCErrorFraction takes.
func ReportDCs(r1hat *table.Relation, fkCol string, dcs []constraint.DC) *DCReport {
	s := scanDCs(r1hat, fkCol, dcs)
	return &DCReport{PerDC: s.perDC, Violating: s.set(), Rows: r1hat.Len()}
}
