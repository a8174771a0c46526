// Package core implements the paper's contribution: the two-phase
// C-Extension solver.
//
// Phase I fills the R2-originated columns of the join view V_Join from the
// cardinality constraints, combining Algorithm 1 (ILP over intervalized
// bins) for intersecting CCs with Algorithm 2 (recursion over Hasse
// diagrams of the containment order) for the rest — the hybrid of §4.3.
//
// Phase II (Algorithm 4) reverse-engineers R1's foreign-key column from the
// filled view by list-coloring conflict hypergraphs built from the denial
// constraints, partitioned by the filled R2 values (§5.2 optimization), and
// materializes fresh R2 tuples for skipped vertices. The result satisfies
// every DC exactly (Prop. 5.5) while keeping CC error low.
package core

import (
	"context"
	"math/rand"
	"time"

	"repro/internal/constraint"
	"repro/internal/hasse"
	"repro/internal/ilp"
	"repro/internal/obsv"
	"repro/internal/sched"
	"repro/internal/table"
)

// Input is a C-Extension instance (Def. 2.6): R1 with an empty FK column,
// R2, and the two constraint sets.
type Input struct {
	R1 *table.Relation // schema (K1, A1..Ap, FK); FK column all-null
	R2 *table.Relation // schema (K2, B1..Bq)
	K1 string          // primary key column of R1
	K2 string          // primary key column of R2 (FK target)
	FK string          // foreign key column of R1

	CCs []constraint.CC
	DCs []constraint.DC
}

// Mode selects the phase-I strategy.
type Mode uint8

const (
	// ModeHybrid is the paper's approach (§4.3): Algorithm 2 for
	// intersection-free diagrams, Algorithm 1 for the rest.
	ModeHybrid Mode = iota
	// ModeILPOnly routes every CC through Algorithm 1 (the baselines, and
	// an ablation of the hybrid split).
	ModeILPOnly
	// ModeHasseOnly routes every CC through Algorithm 2, even intersecting
	// ones (ablation; CC error may grow).
	ModeHasseOnly
)

func (m Mode) String() string {
	switch m {
	case ModeHybrid:
		return "hybrid"
	case ModeILPOnly:
		return "ilp-only"
	case ModeHasseOnly:
		return "hasse-only"
	}
	return "unknown"
}

// ColorOrder selects the vertex order of the list-coloring heuristic.
type ColorOrder uint8

const (
	// OrderLargestFirst is Algorithm 3's non-increasing degree order.
	OrderLargestFirst ColorOrder = iota
	// OrderInput visits vertices in input order (ablation).
	OrderInput
)

// Options configure the solver. The zero value is the paper's hybrid with
// marginal augmentation and partitioned coloring.
type Options struct {
	Mode Mode
	// NoMarginals disables the all-way-marginal augmentation of the ILP
	// (§4.1); the plain baseline runs with this set.
	NoMarginals bool
	// RandomFK makes phase II assign a uniformly random candidate FK per
	// tuple instead of coloring conflict graphs — the baselines' phase II.
	RandomFK bool
	// NoPartition disables the §5.2 optimization and builds one global
	// conflict hypergraph (ablation; slow on large inputs).
	NoPartition bool
	// Order selects the coloring vertex order.
	Order ColorOrder
	// Workers bounds the shared worker pool that parallelizes the whole
	// pipeline: phase I runs independent Hasse subtrees and per-block ILP
	// subproblems concurrently, and phase II streams partitions' conflict
	// hypergraphs into a coloring pool as they are discovered (the Appendix
	// A.3 optimization). SolveBatch schedules whole instances over the same
	// pool. 0 or 1 runs sequentially; negative uses GOMAXPROCS. Output is
	// byte-identical to the sequential path, with one carve-out: a nonzero
	// ILP.TimeLimit makes any run (sequential included) wall-clock
	// dependent, so no determinism is promised under it.
	Workers int
	// Seed drives all randomized tie-breaking; same seed, same output.
	Seed int64
	// ILP bounds the branch-and-bound effort of Algorithm 1. MaxNodes is a
	// per-block budget (the program decomposes into independent blocks);
	// TimeLimit bounds the whole ILP stage.
	ILP ilp.Options
}

// BaselineOptions returns the configuration of the paper's plain baseline
// (Arasu-style ILP without marginal rows, random FK assignment).
func BaselineOptions(seed int64) Options {
	return Options{Mode: ModeILPOnly, NoMarginals: true, RandomFK: true, Seed: seed}
}

// BaselineMarginalsOptions returns the "baseline with marginals"
// configuration from §6.1.
func BaselineMarginalsOptions(seed int64) Options {
	return Options{Mode: ModeILPOnly, RandomFK: true, Seed: seed}
}

// Stats records runtime breakdown and solution diagnostics; the fields
// mirror the stages reported in Figures 11 and 13 of the paper.
type Stats struct {
	Pairwise  time.Duration // CC pairwise classification
	Recursion time.Duration // Algorithm 2 over Hasse diagrams
	ILPTime   time.Duration // Algorithm 1 (build + solve + greedy fill)
	Coloring  time.Duration // Algorithm 4 conflict graphs + coloring only
	Phase1    time.Duration
	Phase2    time.Duration // all of phase II incl. R̂1 write-back and final join
	Total     time.Duration

	CCsToHasse int // |S1|
	CCsToILP   int // |S2|
	ILPVars    int
	ILPRows    int
	ILPNodes   int
	ILPIters   int
	ILPStatus  string

	UnfilledAfterPhase1 int // tuples completed via combo_unused
	InvalidTuples       int
	Partitions          int
	ConflictEdges       int
	SkippedVertices     int
	AddedR2Tuples       int

	// Incremental-solve diagnostics (the session / delta path; see
	// SolveSessionContext). All zero for a plain Solve.
	PlanReused        bool // CC classification came from a compiled Plan
	ProbReused        bool // the compiled problem was patched, not rebuilt
	SplicedPartitions int  // phase-2 partitions spliced from the prior solve
}

// Result is the solver output: R̂1 with the FK column completed, R̂2 with
// any artificially added tuples, the final join view, and diagnostics.
type Result struct {
	R1Hat *table.Relation
	R2Hat *table.Relation
	VJoin *table.Relation // R̂1 ⋈ R̂2, fully populated
	Stats Stats
}

// prob carries the derived solver state shared across phases.
type prob struct {
	in   Input
	opt  Options
	rng  *rand.Rand
	stat *Stats
	pool *sched.Pool     // shared bounded worker pool; nil means sequential
	ctx  context.Context // per-solve cancellation; nil never cancels

	// trace receives per-phase spans for the solve in flight; nil (the
	// common non-served case) records nothing. All span clock readings go
	// through the audited now()/since() helpers — the trace only ever
	// receives explicit (start, duration) pairs, so this package still
	// reads the wall clock in exactly one audited place and trace data
	// stays out of Stats, fingerprints, and solver decisions.
	trace *obsv.Trace

	aCols     []string // R1 non-key attribute columns
	bCols     []string // R2 non-key attribute columns
	usedBCols []string // B columns referenced by any CC
	isR2Col   map[string]bool

	vjoin *table.Relation // K1 + aCols + bCols; usedBCols filled by phase I

	// colView is the columnar snapshot of V_Join's immutable columns
	// (K1 + aCols — everything the CC R1-parts and the DCs can touch).
	// Phase I only ever writes usedBCols, so the snapshot stays valid for
	// the whole solve and every hot predicate compiles against it once.
	colView *table.Columnar

	// comboOf mirrors the phase-I fill state: the combo index assigned to
	// each V_Join row, or -1 while the row is unfilled. It makes filled()
	// an array lookup and lets phase II partition rows without re-encoding
	// their B values.
	comboOf []int

	// Active combos of R2 over usedBCols, in canonical (sorted-key) order.
	// All cross-references use the integer combo id; comboKeys/comboByKey
	// survive only for setup and diagnostics.
	combos      [][]table.Value
	comboKeys   []string
	comboByKey  map[string]int
	r2RowsBy    [][]int         // combo id -> R2 row indices (of in.R2)
	keysByCombo [][]table.Value // combo id -> sorted candidate FK keys (L of Algorithm 4)

	ccR1s, ccR2s [][]table.Predicate // per-disjunct splits (union semantics)

	// Compiled forms: ccR1b holds the per-disjunct R1 parts compiled
	// against colView (ccR1b[cc][0] is the Algorithm 2 conjunct), and
	// ccComboMatch[cc][d][c] records whether combo c satisfies disjunct
	// d's R2 part — the paper's selection predicates reduced to slice
	// lookups.
	ccR1b        [][]table.ColPredicate
	ccComboMatch [][][]bool

	// DCs bound to the join view: boundDCs for pairwise atom evaluation,
	// dcCand[dc][var][row] for the unary candidate filters, and intAccess
	// for typed reads of the columns binary atoms compare (all computed
	// once per solve in ensureDCCand, read concurrently by the coloring
	// workers).
	boundDCs  []constraint.BoundDC
	dcCand    [][][]bool
	intAccess map[string]func(int) (int64, bool)
	dcColIdx  []int // V_Join column indices referenced by any DC atom

	// Plan / session reuse state. plan (optional) supplies the pairwise CC
	// classification without reclassifying; rel, split and forestAll cache
	// the classification-derived artifacts across a session's re-solves
	// (they depend only on constraint predicates, never on targets or row
	// data). capture/prior/dirty drive the phase-2 memo machinery of
	// session.go; all nil/false for a plain Solve.
	plan       *Plan
	planReused bool
	rel        [][]constraint.Relationship
	split      *hybridSplitState
	forestAll  *hasse.Forest

	capture  bool         // record a solveMemo during phase 2
	priors   []*solveMemo // retained memos to splice from, newest first
	captured *solveMemo   // memo recorded by the current run

	// program is the Algorithm 1 program of the last run, which the next
	// run reuses when it fits (phase1_ilp.go); nil when none was built, a
	// TimeLimit was set, or an R1 row changed since.
	program *ilpProgram
}

// hybridSplitState caches the hybrid's S1/S2 split and the S1 Hasse forest.
type hybridSplitState struct {
	s1, s2 []int
	forest *hasse.Forest
}
