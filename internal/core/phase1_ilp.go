package core

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/binning"
	"repro/internal/ilp"
	"repro/internal/table"
)

// ilpProgram is what one Algorithm 1 run keeps for the next run on the
// same problem: the bins and fill order of its integer program, the
// targets it was solved for, and the joint solution. A session's next
// solve reuses it when nothing it depends on changed: the bins and
// variables are functions of the modelled CCs' predicates, R1's rows and
// which of them are unfilled, and the targets set the CC rows'
// right-hand sides.
type ilpProgram struct {
	ccIdx     []int   // the CCs modelled
	targets   []int64 // their targets, which the solution is for
	marginals bool
	bins      [][]int  // the unfilled V_Join rows of each bin, ascending
	vars      []ilpVar // structural variables in fill order: by bin, then combo
	numVars   int
	numRows   int
	sol       *ilp.Solution
}

// ilpVar is one structural variable: the number of bin's rows that take
// combo.
type ilpVar struct{ id, bin, combo int }

// runILP is Algorithm 1: model the given CCs over the still-unfilled
// V_Join tuples as an integer program and greedily write the solution's
// combos back into the view.
//
// The program the problem kept from its previous run is reused, solution
// and all, when it fits this run (see fits); otherwise it is built and
// solved afresh. The greedy fill runs either way. A kept solution is
// exactly what a fresh build and solve would give, since the solve is a
// pure function of the program when no TimeLimit is set; with one,
// nothing is kept.
func (p *prob) runILP(ccIdx []int, withMarginals bool) error {
	if len(ccIdx) == 0 || len(p.usedBCols) == 0 {
		return nil
	}
	pg := p.program
	p.program = nil
	if pg != nil && pg.fits(p, ccIdx, withMarginals) {
		if p.trace != nil {
			p.trace.Event("ilp: program kept")
		}
	} else {
		var prob *ilp.Problem
		if pg, prob = p.buildILP(ccIdx, withMarginals); pg == nil {
			return nil
		}
		// The program decomposes into independent blocks (connected
		// components of its variable–constraint graph — at least one per
		// disjoint CC component); with a pool attached, the blocks solve
		// concurrently.
		var runner ilp.Runner
		if p.pool != nil {
			runner = p.pool
		}
		sol, err := ilp.SolveBlocks(prob, p.opt.ILP, runner)
		if err != nil {
			return fmt.Errorf("core: algorithm 1: %w", err)
		}
		pg.sol = sol
		if p.trace != nil {
			p.trace.Event("ilp: program built")
		}
	}
	sol := pg.sol
	p.stat.ILPVars += pg.numVars
	p.stat.ILPRows += pg.numRows
	p.stat.ILPNodes += sol.Nodes
	p.stat.ILPIters += sol.Iters
	p.stat.ILPStatus = sol.Status.String()
	if sol.Status == ilp.StatusInfeasible {
		// Hard rows are only capacities over non-negative vars, so this
		// cannot happen; guard anyway.
		return fmt.Errorf("core: algorithm 1: infeasible capacity system")
	}
	if p.opt.ILP.TimeLimit == 0 {
		p.program = pg
	}

	// Greedy fill (lines 15–17): deterministic variable order.
	cursor := make([]int, len(pg.bins)) // bin -> next row offset
	for _, v := range pg.vars {
		n := sol.X[v.id]
		rows := pg.bins[v.bin]
		for n > 0 && cursor[v.bin] < len(rows) {
			row := rows[cursor[v.bin]]
			cursor[v.bin]++
			if p.filled(row) {
				continue
			}
			p.assignCombo(row, v.combo)
			n--
		}
	}
	return nil
}

// fits reports whether the kept program and its solution model this run:
// the same CCs with the same targets, the same marginals setting, and
// exactly the rows still unfilled. Its bins, variables and rows then
// equal a fresh build's, because applyChanges drops the program whenever
// an R1 row changed and a session never changes a predicate.
func (pg *ilpProgram) fits(p *prob, ccIdx []int, withMarginals bool) bool {
	if pg.marginals != withMarginals || !slices.Equal(pg.ccIdx, ccIdx) {
		return false
	}
	for i, cc := range ccIdx {
		if p.in.CCs[cc].Target != pg.targets[i] {
			return false
		}
	}
	// Every row of a bin is still unfilled, and no other row is.
	unfilled := 0
	for i := 0; i < p.vjoin.Len(); i++ {
		if !p.filled(i) {
			unfilled++
		}
	}
	for _, rows := range pg.bins {
		for _, r := range rows {
			if p.filled(r) {
				return false
			}
		}
		unfilled -= len(rows)
	}
	return unfilled == 0
}

// buildILP builds the program of Algorithm 1 over the unfilled rows, or
// returns nil when every row is filled. The ilpProgram it returns has no
// solution yet.
//
// Bins are the distinct (A1..Ap) combinations among unfilled tuples with
// numeric columns intervalized at CC boundaries; variables are the
// (bin, combo) pairs touched by at least one CC row. With marginals enabled
// (the paper's augmentation, §4.1/§4.3) each bin contributes a hard
// capacity row and a soft all-way-marginal row, the latter including a
// remainder variable when globally unused combos exist so that surplus
// tuples can be parked harmlessly.
func (p *prob) buildILP(ccIdx []int, withMarginals bool) (*ilpProgram, *ilp.Problem) {
	// Intervalize the R1 parts of every disjunct of the participating CCs.
	preds := make([]table.Predicate, 0, len(ccIdx))
	for _, cc := range ccIdx {
		preds = append(preds, p.ccR1s[cc]...)
	}
	intervals := binning.Intervalize(preds)
	binner := binning.NewBinner(p.vjoin.Schema(), p.aCols, intervals)

	// Collect bins over unfilled tuples; a bin's first row represents it.
	binByKey := make(map[string]int)
	var bins [][]int
	var reps []int
	for i := 0; i < p.vjoin.Len(); i++ {
		if p.filled(i) {
			continue
		}
		k := binner.Key(p.vjoin.Row(i))
		id, ok := binByKey[k]
		if !ok {
			id = len(bins)
			binByKey[k] = id
			bins = append(bins, nil)
			reps = append(reps, i)
		}
		bins[id] = append(bins[id], i)
	}
	if len(bins) == 0 {
		return nil, nil
	}

	// Lazily create variables from CC rows.
	type varKey struct{ bin, combo int }
	varID := make(map[varKey]int)
	var varList []varKey
	getVar := func(b, c int) int {
		k := varKey{b, c}
		if id, ok := varID[k]; ok {
			return id
		}
		id := len(varList)
		varID[k] = id
		varList = append(varList, k)
		return id
	}

	prob := &ilp.Problem{}
	var ccRows [][]ilp.Term
	for _, cc := range ccIdx {
		// Union over the CC's disjuncts: a (bin, combo) pair contributes
		// once if any disjunct covers it.
		covered := make(map[varKey]bool)
		var terms []ilp.Term
		for d := range p.ccR1s[cc] {
			var matchBins []int
			for b := range bins {
				if p.ccR1b[cc][d].Eval(reps[b]) {
					matchBins = append(matchBins, b)
				}
			}
			for c := range p.combos {
				if !p.ccComboMatch[cc][d][c] {
					continue
				}
				for _, b := range matchBins {
					k := varKey{b, c}
					if covered[k] {
						continue
					}
					covered[k] = true
					terms = append(terms, ilp.Term{Var: getVar(b, c), Coef: 1})
				}
			}
		}
		ccRows = append(ccRows, terms)
	}

	// The CC soft rows. A CC with no reachable (bin, combo) pair still gets
	// a row so its deviation is accounted for; it simply has no terms.
	for i, cc := range ccIdx {
		prob.Cons = append(prob.Cons, ilp.Constraint{
			Terms: ccRows[i], Sense: ilp.EQ, RHS: float64(p.in.CCs[cc].Target), Soft: true,
		})
	}

	// Group variables by bin for the capacity/marginal rows.
	varsByBin := make(map[int][]int)
	for id, k := range varList {
		varsByBin[k.bin] = append(varsByBin[k.bin], id)
	}
	nStructural := len(varList)
	remainderPossible := len(p.comboUnused()) > 0
	if withMarginals {
		next := nStructural
		// Sorted bin order keeps the LP row order — and therefore the
		// specific optimum the simplex lands on — deterministic.
		binOrder := make([]int, 0, len(varsByBin))
		for b := range varsByBin {
			binOrder = append(binOrder, b)
		}
		sort.Ints(binOrder)
		for _, b := range binOrder {
			vars := varsByBin[b]
			cnt := float64(len(bins[b]))
			terms := make([]ilp.Term, 0, len(vars)+1)
			for _, v := range vars {
				terms = append(terms, ilp.Term{Var: v, Coef: 1})
			}
			if remainderPossible {
				terms = append(terms, ilp.Term{Var: next, Coef: 1})
				next++
			}
			// Hard capacity: never plan more tuples than the bin holds.
			prob.Cons = append(prob.Cons, ilp.Constraint{Terms: terms, Sense: ilp.LE, RHS: cnt})
			// Soft all-way marginal: plan to assign the whole bin.
			prob.Cons = append(prob.Cons, ilp.Constraint{Terms: terms, Sense: ilp.EQ, RHS: cnt, Soft: true})
		}
		prob.NumVars = next
	} else {
		prob.NumVars = nStructural
	}

	pg := &ilpProgram{
		ccIdx: ccIdx, targets: make([]int64, len(ccIdx)), marginals: withMarginals,
		bins: bins, numVars: prob.NumVars, numRows: len(prob.Cons),
	}
	for i, cc := range ccIdx {
		pg.targets[i] = p.in.CCs[cc].Target
	}
	// The greedy fill's deterministic variable order.
	pg.vars = make([]ilpVar, nStructural)
	for id, k := range varList {
		pg.vars[id] = ilpVar{id: id, bin: k.bin, combo: k.combo}
	}
	sort.Slice(pg.vars, func(a, b int) bool {
		va, vb := pg.vars[a], pg.vars[b]
		if va.bin != vb.bin {
			return va.bin < vb.bin
		}
		return va.combo < vb.combo
	})
	return pg, prob
}
