package ilp

import (
	"fmt"
	"sort"
	"time"
)

// Runner fans independent tasks out over a worker pool; it is satisfied by
// *sched.Pool. A nil Runner runs tasks sequentially.
type Runner interface {
	ForEach(n int, fn func(int))
}

// Block is one independent subproblem of a decomposed integer program.
type Block struct {
	Prob *Problem
	Vars []int // original variable ids, ascending; Prob's var j is Vars[j]
	Cons []int // original constraint indices, ascending
}

// Split partitions p into independent blocks: the connected components of
// the bipartite variable–constraint graph. Because blocks share no
// variables and the weighted L1-deviation objective is separable, solving
// the blocks independently optimizes the joint problem exactly. Constraints
// without terms (possible for CC rows with no reachable variable) become
// singleton blocks carrying their constant deviation. Variables appearing
// in no constraint are not covered by any block; they are fixed at zero by
// SolveBlocks, matching the joint solver's optimum for non-negative costs.
// Blocks are ordered by their smallest original constraint index, so the
// decomposition is deterministic.
func Split(p *Problem) []Block {
	// Union-find over variables; each constraint unions the variables it
	// touches.
	parent := make([]int, p.NumVars)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for _, c := range p.Cons {
		for i := 1; i < len(c.Terms); i++ {
			union(c.Terms[0].Var, c.Terms[i].Var)
		}
	}

	// Group constraints by component root; termless constraints get their
	// own singleton groups.
	consByRoot := make(map[int][]int)
	var roots []int // first-appearance order == smallest-constraint order
	addCon := func(root, ci int) {
		if _, ok := consByRoot[root]; !ok {
			roots = append(roots, root)
		}
		consByRoot[root] = append(consByRoot[root], ci)
	}
	for ci, c := range p.Cons {
		if len(c.Terms) == 0 {
			addCon(-1-ci, ci) // unique synthetic root per termless row
			continue
		}
		addCon(find(c.Terms[0].Var), ci)
	}

	varsByRoot := make(map[int][]int)
	for v := 0; v < p.NumVars; v++ {
		r := find(v)
		if _, used := consByRoot[r]; used {
			varsByRoot[r] = append(varsByRoot[r], v)
		}
	}

	blocks := make([]Block, 0, len(roots))
	for _, root := range roots {
		cons := consByRoot[root]
		vars := varsByRoot[root] // ascending by construction
		sort.Ints(vars)
		localOf := make(map[int]int, len(vars))
		for j, v := range vars {
			localOf[v] = j
		}
		sub := &Problem{NumVars: len(vars)}
		if p.VarCost != nil {
			sub.VarCost = make([]float64, len(vars))
			for j, v := range vars {
				if v < len(p.VarCost) {
					sub.VarCost[j] = p.VarCost[v]
				}
			}
		}
		for _, ci := range cons {
			c := p.Cons[ci]
			terms := make([]Term, len(c.Terms))
			for k, t := range c.Terms {
				terms[k] = Term{Var: localOf[t.Var], Coef: t.Coef}
			}
			sub.Cons = append(sub.Cons, Constraint{
				Terms: terms, Sense: c.Sense, RHS: c.RHS, Soft: c.Soft, Weight: c.Weight,
			})
		}
		blocks = append(blocks, Block{Prob: sub, Vars: vars, Cons: cons})
	}
	return blocks
}

// SolveBlocks solves p by independent-block decomposition, fanning the
// subproblems out on run (nil solves them sequentially). Options.MaxNodes
// and Options.MaxIters apply per block (each block is one branch-and-bound
// search, as one Solve call used to be), while Options.TimeLimit is split
// across the blocks in proportion to their variable counts — a dominant
// block keeps nearly the whole budget while trivial singletons get a
// 1ms-per-block floor — so the total stays bounded by roughly the
// caller's budget without making block budgets depend on execution order.
// The combined solution is assembled in canonical block order, so the
// result does not depend on the runner's parallelism (TimeLimit-bounded
// searches remain wall-clock dependent, as they always were for Solve).
// Node and pivot counts are summed across blocks and the combined status
// is the weakest block status.
func SolveBlocks(p *Problem, opt Options, run Runner) (*Solution, error) {
	blocks := Split(p)
	budgets := blockBudgets(opt.TimeLimit, blocks)
	sols := make([]*Solution, len(blocks))
	errs := make([]error, len(blocks))
	forEach := func(n int, fn func(int)) {
		for i := 0; i < n; i++ {
			fn(i)
		}
	}
	if run != nil {
		forEach = run.ForEach
	}
	forEach(len(blocks), func(i int) {
		o := opt
		if budgets != nil {
			o.TimeLimit = budgets[i]
		}
		sols[i], errs[i] = Solve(blocks[i].Prob, o)
	})

	return assembleBlockSolutions(p, blocks, sols, errs)
}

// blockBudgets apportions a wall-clock budget across blocks by variable
// count (deterministically — no dependence on execution order), flooring
// each share at 1ms so every block keeps a nonzero TimeLimit. Returns nil
// when no budget is set.
func blockBudgets(limit time.Duration, blocks []Block) []time.Duration {
	if limit <= 0 {
		return nil
	}
	totalVars := 0
	for _, b := range blocks {
		totalVars += len(b.Vars)
	}
	out := make([]time.Duration, len(blocks))
	for i, b := range blocks {
		share := limit
		if totalVars > 0 {
			share = limit * time.Duration(len(b.Vars)) / time.Duration(totalVars)
		}
		if share < time.Millisecond {
			share = time.Millisecond
		}
		out[i] = share
	}
	return out
}

// assembleBlockSolutions merges per-block solutions into one joint
// solution in canonical block order.
func assembleBlockSolutions(p *Problem, blocks []Block, sols []*Solution, errs []error) (*Solution, error) {
	out := &Solution{Status: StatusOptimal, X: make([]int64, p.NumVars)}
	for i, b := range blocks {
		if errs[i] != nil {
			return nil, fmt.Errorf("ilp: block %d: %w", i, errs[i])
		}
		s := sols[i]
		out.Nodes += s.Nodes
		out.Iters += s.Iters
		if s.Status > out.Status {
			out.Status = s.Status
		}
		if s.Status == StatusInfeasible {
			return &Solution{Status: StatusInfeasible, Nodes: out.Nodes, Iters: out.Iters}, nil
		}
		out.Obj += s.Obj
		for j, v := range b.Vars {
			out.X[v] = s.X[j]
		}
	}
	return out, nil
}
