package core

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/constraint"
	"repro/internal/table"
)

// newProb validates the input and derives the shared solver state,
// including the initialized join view of §3.1: a copy of R1's key and
// attribute columns with empty B columns.
func newProb(in Input, opt Options, stat *Stats) (*prob, error) {
	if in.R1 == nil || in.R2 == nil {
		return nil, fmt.Errorf("core: nil relation")
	}
	for _, c := range []struct {
		rel *table.Relation
		col string
	}{
		{in.R1, in.K1}, {in.R1, in.FK}, {in.R2, in.K2},
	} {
		if !c.rel.Schema().Has(c.col) {
			return nil, fmt.Errorf("core: %s has no column %q", c.rel.Name, c.col)
		}
	}
	p := &prob{in: in, opt: opt, rng: rand.New(rand.NewSource(opt.Seed)), stat: stat}

	for _, col := range in.R1.Schema().Names() {
		if col != in.K1 && col != in.FK {
			p.aCols = append(p.aCols, col)
		}
	}
	p.isR2Col = make(map[string]bool)
	for _, col := range in.R2.Schema().Names() {
		if col != in.K2 {
			p.bCols = append(p.bCols, col)
			p.isR2Col[col] = true
		}
	}
	// Reject ambiguous schemas: a B column shadowing K1 or an A column would
	// make CC predicates ambiguous on the join view, which holds all three.
	for _, col := range append([]string{in.K1}, p.aCols...) {
		if p.isR2Col[col] {
			return nil, fmt.Errorf("core: column %q appears in both relations", col)
		}
	}
	for _, dc := range in.DCs {
		if err := dc.Validate(); err != nil {
			return nil, err
		}
		for _, a := range dc.Unary {
			if p.isR2Col[a.Col] {
				return nil, fmt.Errorf("core: DC %q references R2 column %q (foreign-key DCs are over R1)", dc.Name, a.Col)
			}
		}
	}

	// B columns actually used by the CC set; the solver only ever fills
	// these in V_Join (the paper's "in practice we only consider columns
	// used in S_CC").
	used := make(map[string]bool)
	p.ccR1s = make([][]table.Predicate, len(in.CCs))
	p.ccR2s = make([][]table.Predicate, len(in.CCs))
	for i, cc := range in.CCs {
		if cc.Target < 0 {
			return nil, fmt.Errorf("core: CC %d has negative target", i)
		}
		// Validate that every atom of every disjunct touches a known
		// non-key column.
		for _, d := range cc.Disjuncts() {
			for _, a := range d.Atoms {
				if !p.isR2Col[a.Col] && !in.R1.Schema().Has(a.Col) {
					return nil, fmt.Errorf("core: CC %d references unknown column %q", i, a.Col)
				}
				if a.Col == in.K1 || a.Col == in.K2 || a.Col == in.FK {
					return nil, fmt.Errorf("core: CC %d references key column %q (CCs are over non-key attributes)", i, a.Col)
				}
			}
		}
		p.ccR1s[i], p.ccR2s[i] = cc.PartAll(func(c string) bool { return p.isR2Col[c] })
		for _, r2 := range p.ccR2s[i] {
			for _, a := range r2.Atoms {
				used[a.Col] = true
			}
		}
	}
	for _, col := range p.bCols { // keep schema order
		if used[col] {
			p.usedBCols = append(p.usedBCols, col)
		}
	}

	// V_Join: K1 + A columns + all B columns (empty).
	var cols []table.Column
	s1 := in.R1.Schema()
	cols = append(cols, s1.Col(s1.MustIndex(in.K1)))
	for _, c := range p.aCols {
		cols = append(cols, s1.Col(s1.MustIndex(c)))
	}
	s2 := in.R2.Schema()
	for _, c := range p.bCols {
		cols = append(cols, s2.Col(s2.MustIndex(c)))
	}
	p.vjoin = table.NewRelation("VJoin", table.NewSchema(cols...))
	p.comboOf = make([]int, in.R1.Len())
	for i := range p.comboOf {
		p.comboOf[i] = -1
	}
	for i := 0; i < in.R1.Len(); i++ {
		row := make([]table.Value, 0, len(cols))
		row = append(row, in.R1.Value(i, in.K1))
		for _, c := range p.aCols {
			row = append(row, in.R1.Value(i, c))
		}
		for range p.bCols {
			row = append(row, table.Null())
		}
		if err := p.vjoin.Append(row...); err != nil {
			return nil, err
		}
	}

	// Active combos over usedBCols, with the R2 rows backing each combo.
	p.comboByKey = make(map[string]int)
	r2RowsByCombo := make(map[string][]int)
	for i := 0; i < in.R2.Len(); i++ {
		vals := make([]table.Value, len(p.usedBCols))
		for j, c := range p.usedBCols {
			vals[j] = in.R2.Value(i, c)
		}
		k := table.EncodeKey(vals...)
		if _, ok := p.comboByKey[k]; !ok {
			p.comboByKey[k] = len(p.combos)
			p.combos = append(p.combos, vals)
			p.comboKeys = append(p.comboKeys, k)
		}
		r2RowsByCombo[k] = append(r2RowsByCombo[k], i)
	}
	// Deterministic combo order.
	order := make([]int, len(p.combos))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return p.comboKeys[order[a]] < p.comboKeys[order[b]] })
	combos := make([][]table.Value, len(order))
	keys := make([]string, len(order))
	for i, o := range order {
		combos[i] = p.combos[o]
		keys[i] = p.comboKeys[o]
	}
	p.combos, p.comboKeys = combos, keys
	p.r2RowsBy = make([][]int, len(p.combos))
	for i, k := range p.comboKeys {
		p.comboByKey[k] = i
		p.r2RowsBy[i] = r2RowsByCombo[k]
	}
	// Candidate FK keys per combo (L of Algorithm 4), computed once here so
	// phase II never re-derives or re-sorts them. The slices are exactly
	// sized: appending fresh keys to a partition's palette reallocates
	// instead of clobbering this shared state.
	p.keysByCombo = make([][]table.Value, len(p.combos))
	for c, rows := range p.r2RowsBy {
		ks := make([]table.Value, 0, len(rows))
		for _, r := range rows {
			ks = append(ks, in.R2.Value(r, in.K2))
		}
		sort.Slice(ks, func(a, b int) bool { return table.Less(ks[a], ks[b]) })
		p.keysByCombo[c] = ks
	}
	p.compile()
	return p, nil
}

// compile builds the columnar snapshot of the join view's immutable columns
// and lowers every constraint onto it: CC R1-parts become ColPredicates,
// CC R2-parts become the per-combo boolean table, and DCs bind to the view's
// schema. After this point the per-row hot loops never consult a schema map
// or compare a string.
func (p *prob) compile() {
	immutable := append([]string{p.in.K1}, p.aCols...)
	p.colView = table.NewColumnar(p.vjoin, immutable...)

	// usedBCols positions, for lowering R2-part atoms onto combo tuples.
	colOf := make(map[string]int, len(p.usedBCols))
	for j, c := range p.usedBCols {
		colOf[c] = j
	}
	comboMatches := func(c int, r2Part table.Predicate) bool {
		for _, a := range r2Part.Atoms {
			j, ok := colOf[a.Col]
			if !ok || !a.Op.Apply(p.combos[c][j], a.Val) {
				return false
			}
		}
		return true
	}

	p.ccR1b = make([][]table.ColPredicate, len(p.in.CCs))
	p.ccComboMatch = make([][][]bool, len(p.in.CCs))
	for i := range p.in.CCs {
		p.ccR1b[i] = make([]table.ColPredicate, len(p.ccR1s[i]))
		p.ccComboMatch[i] = make([][]bool, len(p.ccR2s[i]))
		for d := range p.ccR1s[i] {
			p.ccR1b[i][d] = p.colView.Bind(p.ccR1s[i][d])
			match := make([]bool, len(p.combos))
			for c := range p.combos {
				match[c] = comboMatches(c, p.ccR2s[i][d])
			}
			p.ccComboMatch[i][d] = match
		}
	}

	p.boundDCs = constraint.BindDCs(p.in.DCs, p.vjoin.Schema())

	// Column indices any DC atom can read; the positional-value splice
	// check of the session path compares exactly these cells.
	dcCols := make(map[int]bool)
	for _, dc := range p.in.DCs {
		for _, a := range dc.Unary {
			if j, ok := p.vjoin.Schema().Index(a.Col); ok {
				dcCols[j] = true
			}
		}
		for _, a := range dc.Binary {
			for _, c := range []string{a.LCol, a.RCol} {
				if j, ok := p.vjoin.Schema().Index(c); ok {
					dcCols[j] = true
				}
			}
		}
	}
	p.dcColIdx = p.dcColIdx[:0]
	for j := range dcCols {
		p.dcColIdx = append(p.dcColIdx, j)
	}
	sort.Ints(p.dcColIdx)
}

// ensureDCCand fills dcCand: for every DC and tuple variable, the rows of
// V_Join passing that variable's unary filters. The filters only touch
// immutable columns, so one pass per solve replaces the per-partition scans
// Algorithm 4 used to do; the conflict builders and the invalid-tuple
// repair then filter candidates with a slice lookup.
func (p *prob) ensureDCCand() {
	if p.dcCand != nil || len(p.in.DCs) == 0 {
		return
	}
	n := p.vjoin.Len()
	p.dcCand = make([][][]bool, len(p.in.DCs))
	for di, dc := range p.in.DCs {
		byVar := make([][]bool, dc.K)
		for v := 0; v < dc.K; v++ {
			cp := p.colView.Bind(dc.VarPredicate(v))
			bits := make([]bool, n)
			for i := 0; i < n; i++ {
				bits[i] = cp.Eval(i)
			}
			byVar[v] = bits
		}
		p.dcCand[di] = byVar
	}
	// Typed accessors for every column a binary DC atom compares; built
	// here (serially) so the concurrent sweep enumerators share them
	// without allocating closures per partition.
	p.intAccess = make(map[string]func(int) (int64, bool))
	for _, dc := range p.in.DCs {
		for _, a := range dc.Binary {
			for _, col := range []string{a.LCol, a.RCol} {
				if _, ok := p.intAccess[col]; !ok && p.vjoin.Schema().Has(col) {
					p.intAccess[col] = p.intColAccess(col)
				}
			}
		}
	}
}

// filled reports whether V_Join row i has every usedBCol assigned. Rows are
// only ever filled through assignCombo, so the combo index doubles as the
// fill flag (rows are trivially complete when no B column is in play).
func (p *prob) filled(i int) bool {
	return len(p.usedBCols) == 0 || p.comboOf[i] >= 0
}

// assignCombo writes combo c's values into row i's usedBCols and records
// the assignment.
func (p *prob) assignCombo(i, c int) {
	for j, col := range p.usedBCols {
		p.vjoin.Set(i, col, p.combos[c][j])
	}
	p.comboOf[i] = c
}

// comboUnused returns the combo indices that are irrelevant to every CC in
// the full constraint set: assigning them can never contribute to any CC
// count (line 14 of Algorithm 2). Every disjunct of every CC is consulted;
// disjuncts without R2 atoms are combo-independent and ignored.
func (p *prob) comboUnused() []int {
	var out []int
	for c := range p.combos {
		relevant := false
	scan:
		for i := range p.in.CCs {
			for d, r2 := range p.ccR2s[i] {
				if len(r2.Atoms) == 0 {
					continue
				}
				if p.ccComboMatch[i][d][c] {
					relevant = true
					break scan
				}
			}
		}
		if !relevant {
			out = append(out, c)
		}
	}
	return out
}
