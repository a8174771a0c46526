package core

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/constraint"
	"repro/internal/hasse"
	"repro/internal/obsv"
	"repro/internal/sched"
	"repro/internal/table"
)

// PoolFor builds the worker pool an Options value asks for: nil (fully
// sequential) for Workers 0 or 1, a GOMAXPROCS-sized pool for negative
// Workers, and an exactly-sized pool otherwise. A pool that resolves to a
// single worker (GOMAXPROCS=1) is collapsed to nil so single-core hosts
// take the true sequential path instead of paying speculation overhead for
// zero parallelism. It is the single source of the parallelism policy:
// the incremental engine derives session pools through it, so a session
// solve and a cold Solve of the same Options always parallelize alike.
//
//lint:ctxflow PoolFor only constructs the pool; the caller owns its lifecycle, and cancellation applies to solves, not to pool construction
func PoolFor(opt Options) *sched.Pool {
	var pool *sched.Pool
	switch {
	case opt.Workers < 0:
		pool = sched.New(0)
	case opt.Workers > 1:
		pool = sched.New(opt.Workers)
	}
	if pool != nil && pool.Workers() == 1 {
		return nil
	}
	return pool
}

// Solve runs the two-phase C-Extension solver end to end and returns R̂1
// (FK filled), R̂2 (possibly augmented), and the final join view. With the
// default options this is the paper's hybrid; BaselineOptions and
// BaselineMarginalsOptions reproduce the §6.1 comparison algorithms.
func Solve(in Input, opt Options) (*Result, error) {
	return solveOnPool(nil, in, opt, PoolFor(opt))
}

// SolveOnContext is Solve against a caller-owned worker pool (nil runs
// fully sequentially), with cooperative cancellation. Long-lived callers —
// notably the serving layer — create one pool at startup and route every
// request's solve through it, so the process-wide parallelism stays
// bounded no matter how many requests are in flight; opt.Workers is
// ignored, the pool is the parallelism policy. ctx is observed at the
// solver's phase boundaries (before phase I, between the Hasse and ILP
// stages, and before phase II), so a canceled request stops within one
// phase rather than running the solve to completion. A nil ctx never
// cancels. Results are unaffected by cancellation timing: a solve either
// finishes byte-identical to Solve or returns ctx's error.
func SolveOnContext(ctx context.Context, in Input, opt Options, pool *sched.Pool) (*Result, error) {
	return solveOnPool(ctx, in, opt, pool)
}

// solveOnPool is Solve against a caller-provided worker pool, shared across
// the instances of a batch.
func solveOnPool(ctx context.Context, in Input, opt Options, pool *sched.Pool) (*Result, error) {
	var stat Stats
	tr := obsv.FromContext(ctx)
	t0 := now()
	p, err := newProb(in, opt, &stat)
	if err != nil {
		return nil, err
	}
	tr.Span("compile", t0, since(t0))
	p.pool = pool
	p.ctx = ctx
	p.trace = tr
	return p.run(t0)
}

// ctxErr is ctx.Err() with nil meaning "never canceled": the solver
// threads an optional context without minting a Background below the API
// boundary.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// canceled reports the problem's cancellation state, wrapping the context
// error so callers can errors.Is against context.Canceled.
func (p *prob) canceled() error {
	if err := ctxErr(p.ctx); err != nil {
		return fmt.Errorf("core: solve canceled: %w", err)
	}
	return nil
}

// classification returns the pairwise CC relationship matrix, computing it
// on first use — from the attached plan's canonical matrix when it matches,
// by direct classification otherwise — and caching it on the problem so
// session re-solves never reclassify (the matrix depends only on constraint
// predicates, which a session never changes).
func (p *prob) classification() [][]constraint.Relationship {
	if p.rel != nil {
		return p.rel
	}
	if p.plan != nil {
		if rel, ok := p.plan.relFor(p.in.CCs); ok {
			p.rel = rel
			p.planReused = true
			return p.rel
		}
	}
	p.rel = constraint.ClassifyAll(p.in.CCs, func(c string) bool { return p.isR2Col[c] })
	return p.rel
}

// hybridSplit returns the cached S1/S2 split and S1 Hasse forest, building
// them from the classification on first use.
func (p *prob) hybridSplit() *hybridSplitState {
	if p.split == nil {
		s1, s2 := p.splitHybrid(p.classification())
		p.split = &hybridSplitState{s1: s1, s2: s2, forest: hasse.Build(subMatrix(p.rel, s1))}
	}
	return p.split
}

// run executes both solver phases on a prepared problem. It resets the
// randomized tie-breaking stream first, so re-running a retained problem
// (the session path) is byte-identical to a fresh solve of the same input.
func (p *prob) run(t0 time.Time) (*Result, error) {
	in, opt, stat := p.in, p.opt, p.stat
	p.rng = rand.New(rand.NewSource(opt.Seed))
	if err := p.canceled(); err != nil {
		return nil, err
	}

	// ---------- Phase I: complete V_Join from the CCs ----------
	tPhase1 := now()
	switch opt.Mode {
	case ModeHybrid:
		tw := now()
		hs := p.hybridSplit()
		stat.Pairwise = since(tw)
		p.trace.Span("classify", tw, stat.Pairwise)
		stat.CCsToHasse, stat.CCsToILP = len(hs.s1), len(hs.s2)

		tw = now()
		p.runHasse(hs.s1, hs.forest)
		stat.Recursion = since(tw)
		p.trace.Span("hasse", tw, stat.Recursion)

		if err := p.canceled(); err != nil {
			return nil, err
		}
		tw = now()
		if err := p.runILP(hs.s2, !opt.NoMarginals); err != nil {
			return nil, err
		}
		stat.ILPTime = since(tw)
		p.trace.Span("ilp", tw, stat.ILPTime)

	case ModeILPOnly:
		all := make([]int, len(in.CCs))
		for i := range all {
			all[i] = i
		}
		stat.CCsToILP = len(all)
		tw := now()
		if err := p.runILP(all, !opt.NoMarginals); err != nil {
			return nil, err
		}
		stat.ILPTime = since(tw)
		p.trace.Span("ilp", tw, stat.ILPTime)

	case ModeHasseOnly:
		all := make([]int, len(in.CCs))
		for i := range all {
			all[i] = i
		}
		stat.CCsToHasse = len(all)
		tw := now()
		rel := p.classification()
		stat.Pairwise = since(tw)
		p.trace.Span("classify", tw, stat.Pairwise)
		tw = now()
		if p.forestAll == nil {
			p.forestAll = hasse.Build(rel)
		}
		p.runHasse(all, p.forestAll)
		stat.Recursion = since(tw)
		p.trace.Span("hasse", tw, stat.Recursion)

	default:
		return nil, fmt.Errorf("core: unknown mode %v", opt.Mode)
	}

	// Leftover tuples. The plain baseline fills them with uniformly random
	// combos (§6.1); every other configuration uses combinations unused by
	// the CC set, leaving invalid tuples when none exist.
	if opt.RandomFK && opt.NoMarginals {
		p.fillLeftoversRandom()
	} else {
		completed, invalid := p.fillLeftoversUnused()
		stat.UnfilledAfterPhase1 = completed + invalid
		if opt.RandomFK && invalid > 0 {
			p.fillLeftoversRandom() // baselines never carry invalid tuples
		}
	}
	stat.Phase1 = since(tPhase1)
	stat.PlanReused = p.planReused // set by classification() during phase I

	// ---------- Phase II: complete R1.FK from V_Join and the DCs ----------
	// runPhase2 records stat.Coloring itself (graph construction + coloring
	// only); Phase2 additionally covers invalid-tuple repair, the R̂1
	// write-back, and the final join.
	if err := p.canceled(); err != nil {
		return nil, err
	}
	tPhase2 := now()
	ph, err := p.runPhase2()
	if err != nil {
		return nil, err
	}

	tWriteBack := now()
	r1hat := in.R1.Clone()
	for i := 0; i < r1hat.Len(); i++ {
		r1hat.Set(i, in.FK, ph.fk[i])
	}
	vj, err := table.Join(r1hat, in.FK, ph.r2hat, in.K2)
	if err != nil {
		return nil, err
	}
	vj.Name = "VJoin"
	p.trace.Span("write-back", tWriteBack, since(tWriteBack))
	stat.Phase2 = since(tPhase2)
	p.trace.Span("phase2", tPhase2, stat.Phase2)
	stat.Total = since(t0)
	// The explain report is measured only on request and only after the
	// solve is complete; it lands on the trace, never in the Result, so
	// solver output stays byte-identical with explain on or off.
	if p.trace.ExplainRequested() {
		p.trace.SetExplain(p.buildExplain())
	}
	return &Result{R1Hat: r1hat, R2Hat: ph.r2hat, VJoin: vj, Stats: *stat}, nil
}

// fillLeftoversRandom assigns uniformly random active combos to every
// still-unfilled tuple (the plain baseline's completion rule).
func (p *prob) fillLeftoversRandom() {
	if len(p.usedBCols) == 0 || len(p.combos) == 0 {
		return
	}
	for i := 0; i < p.vjoin.Len(); i++ {
		if !p.filled(i) {
			p.assignCombo(i, p.rng.Intn(len(p.combos)))
		}
	}
}
