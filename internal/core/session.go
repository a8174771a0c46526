package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/obsv"
	"repro/internal/sched"
	"repro/internal/table"
)

// SessionState is the warm state a solver session retains between solves:
// the compiled problem (columnar snapshot, bound constraints, combo tables,
// classification artifacts, the last Algorithm 1 program) and the phase-2
// memos of recent solves (per-partition colorings plus the fresh-key trace
// needed to replay them). Several memos are kept because what-if traffic
// alternates deltas against one base: a bound nudge followed by a row edit
// reverts the nudge, and the partitions then match the solve before last,
// not the last. It is an opaque box owned by one session; it is NOT safe
// for concurrent use — callers serialize solves per session.
type SessionState struct {
	p     *prob
	memos []*solveMemo // front = most recent solve
}

// memoKeep bounds the retained phase-2 memos per session.
const memoKeep = 3

// NewSessionState returns an empty warm state; the first
// SolveSessionContext call through it runs cold and fills it.
func NewSessionState() *SessionState { return &SessionState{} }

// Reset drops all warm state; the next solve runs cold.
func (st *SessionState) Reset() { st.p, st.memos = nil, nil }

// Warm reports whether the state holds a compiled problem.
func (st *SessionState) Warm() bool { return st != nil && st.p != nil }

// Changes declares how the input of the upcoming solve differs from the
// input of the previous solve recorded in a SessionState. It is a contract,
// not a diff: the caller (the incremental engine) guarantees that nothing
// outside the declared changes differs — same relations (R1 mutated only in
// the declared rows/columns, R2 untouched), same constraint predicates
// (CC targets may differ undeclared: every solve reads them afresh), same
// options. Declaring too little breaks the
// byte-identity guarantee; declaring too much only costs performance.
type Changes struct {
	// Full forces a cold rebuild (unknown provenance).
	Full bool
	// DirtyRows lists R1 row indices whose attribute cells were edited
	// since the previous solve; DirtyCols the union of edited column names.
	DirtyRows []int
	DirtyCols []string
	// Rows appended to (or truncated from) R1 are derived from the length
	// difference between the previous and the new R1; they need not be
	// declared.
}

// errSpliceDiverged signals that a spliced partition's replay disagreed
// with the live fresh-key state — a bug guard; SolveSessionContext reacts
// by discarding the warm state and re-solving cold.
var errSpliceDiverged = errors.New("core: spliced partition diverged from fresh-key state")

// SolveSessionContext solves in/opt reusing (and refreshing) the warm state
// in st.
//
// When st holds a compatible compiled problem, the problem is patched by
// the declared changes instead of rebuilt — the columnar snapshot keeps its
// untouched columns, bound constraints and combo tables survive, and the
// pairwise CC classification (with the hybrid split and Hasse forest) is
// never recomputed. Phase I reuses the kept Algorithm 1 program and its
// solution when the same rows are unfilled and the targets of the CCs it
// models are unchanged. Phase 2 then splices partition colorings from the
// retained memos wherever a partition is provably identical: same combo,
// same size, equal DC-referenced column values position by position (the
// complete input of the coloring), and an unchanged fresh-key state when
// the partition minted artificial R2 tuples. Everything else re-solves.
//
// The output is byte-identical to Solve(in, opt) on the same input: every
// reused artifact is a pure function of inputs that did not change, and the
// solver consumes no randomness outside the baselines' RandomFK paths
// (which disable splicing entirely).
//
// plan, when non-nil and matching, supplies the CC classification for cold
// builds. pool and ctx follow SolveOnContext semantics (nil pool =
// sequential; ctx checked at phase boundaries, nil never cancels). A
// canceled solve may have mutated the retained problem mid-way through
// phase I, so the warm state is dropped before returning — the session's
// next solve rebuilds cold, which is always correct.
func SolveSessionContext(ctx context.Context, in Input, opt Options, st *SessionState, ch Changes, plan *Plan, pool *sched.Pool) (*Result, error) {
	if st == nil {
		st = NewSessionState()
	}
	res, err := solveSessionOnce(ctx, in, opt, st, ch, plan, pool)
	if errors.Is(err, errSpliceDiverged) {
		// Defensive: replay disagreed with the recorded memo. Drop every
		// warm artifact and answer from a cold solve, which is always
		// correct.
		st.Reset()
		return solveSessionOnce(ctx, in, opt, st, Changes{Full: true}, plan, pool)
	}
	if err != nil && ctxErr(ctx) != nil {
		st.Reset()
	}
	return res, err
}

func solveSessionOnce(ctx context.Context, in Input, opt Options, st *SessionState, ch Changes, plan *Plan, pool *sched.Pool) (*Result, error) {
	var stat Stats
	tr := obsv.FromContext(ctx)
	t0 := now()
	p := st.p
	if p == nil || ch.Full || !p.compatible(in, opt) {
		var err error
		p, err = newProb(in, opt, &stat)
		if err != nil {
			return nil, err
		}
		tr.Span("compile", t0, since(t0))
		p.plan = plan
		st.p, st.memos = p, nil
	} else {
		if err := p.applyChanges(in, opt, &stat, ch); err != nil {
			// Patch failure leaves the problem in an undefined state;
			// rebuild from scratch.
			st.Reset()
			tr.Event("session: patch failed; rebuilding cold")
			p, err = newProb(in, opt, &stat)
			if err != nil {
				return nil, err
			}
			tr.Span("compile", t0, since(t0))
			p.plan = plan
			st.p = p
		} else {
			stat.ProbReused = true
			tr.Span("rebase", t0, since(t0))
		}
	}
	p.pool = pool
	p.ctx = ctx
	p.trace = tr

	// Splicing and capture only make sense for the deterministic coloring
	// path: RandomFK consumes the rng stream (replay would desynchronize
	// it) and NoPartition colors one global graph with no per-partition
	// units to splice.
	p.capture = !opt.RandomFK && !opt.NoPartition
	p.priors = st.memos

	res, err := p.run(t0)
	p.priors, p.capture = nil, false
	if err != nil {
		st.memos = nil
		p.captured = nil
		return nil, err
	}
	if p.captured != nil {
		st.memos = append([]*solveMemo{p.captured}, st.memos...)
		if len(st.memos) > memoKeep {
			st.memos = st.memos[:memoKeep]
		}
	}
	p.captured = nil
	return res, nil
}

// compatible reports whether the retained problem can be patched to solve
// in/opt. The session contract keeps the relation objects stable (R1 is
// mutated in place, R2 never), so identity checks plus shape checks
// suffice; constraint predicates are trusted unchanged per the Changes
// contract, with a cheap shape check as a tripwire.
func (p *prob) compatible(in Input, opt Options) bool {
	if p.in.K1 != in.K1 || p.in.K2 != in.K2 || p.in.FK != in.FK {
		return false
	}
	if p.in.R1 != in.R1 || p.in.R2 != in.R2 {
		return false
	}
	if len(p.in.CCs) != len(in.CCs) || len(p.in.DCs) != len(in.DCs) {
		return false
	}
	for i := range in.CCs {
		if len(p.in.CCs[i].Pred.Atoms) != len(in.CCs[i].Pred.Atoms) ||
			len(p.in.CCs[i].OrElse) != len(in.CCs[i].OrElse) {
			return false
		}
	}
	o1, o2 := p.opt, opt
	o1.Workers, o2.Workers = 0, 0 // the pool is the parallelism policy
	return o1 == o2
}

// applyChanges patches a retained problem in place for the new input:
// V_Join rows are appended/truncated/rewritten to mirror R1, the columnar
// snapshot is rebuilt reusing untouched columns, compiled predicates are
// re-bound, the DC candidate bitsets are repaired for exactly the changed
// rows, and the phase-1 fill state is reset. Classification artifacts
// (rel, split, forest) survive untouched — they depend only on predicates.
// The kept Algorithm 1 program survives only when no R1 row changed.
func (p *prob) applyChanges(in Input, opt Options, stat *Stats, ch Changes) error {
	oldLen := p.vjoin.Len()
	newLen := in.R1.Len()
	p.in, p.opt, p.stat = in, opt, stat
	if len(ch.DirtyRows) > 0 || newLen != oldLen {
		p.program = nil // its bins and rows were built from R1's rows
	}

	// 1. Row shape: truncate or append V_Join rows to mirror R1.
	if newLen < oldLen {
		p.vjoin.Truncate(newLen)
		p.comboOf = p.comboOf[:newLen]
	}
	for _, r := range ch.DirtyRows {
		// Rows at or past the current V_Join length are freshly appended
		// below with their new values; nothing to rewrite.
		if r >= newLen || r >= p.vjoin.Len() {
			continue
		}
		p.vjoin.Set(r, p.in.K1, in.R1.Value(r, p.in.K1))
		for _, c := range p.aCols {
			p.vjoin.Set(r, c, in.R1.Value(r, c))
		}
	}
	nCols := p.vjoin.Schema().Len()
	for i := oldLen; i < newLen; i++ {
		row := make([]table.Value, 0, nCols)
		row = append(row, in.R1.Value(i, in.K1))
		for _, c := range p.aCols {
			row = append(row, in.R1.Value(i, c))
		}
		for range p.bCols {
			row = append(row, table.Null())
		}
		if err := p.vjoin.Append(row...); err != nil {
			return err
		}
		p.comboOf = append(p.comboOf, -1)
	}

	// 2. Columnar snapshot: full rebuild when the row count changed,
	// dirty-columns-only otherwise.
	immutable := append([]string{p.in.K1}, p.aCols...)
	if newLen != oldLen {
		p.colView = table.NewColumnar(p.vjoin, immutable...)
	} else {
		dirtyCols := make(map[string]bool, len(ch.DirtyCols)+1)
		for _, c := range ch.DirtyCols {
			dirtyCols[c] = true
		}
		p.colView = table.NewColumnarReusing(p.vjoin, p.colView, dirtyCols, immutable...)
	}

	// 3. Re-bind the compiled CC R1-parts against the new snapshot (string
	// constants re-code against possibly-changed dictionaries).
	for i := range p.ccR1s {
		for d := range p.ccR1s[i] {
			p.ccR1b[i][d] = p.colView.Bind(p.ccR1s[i][d])
		}
	}

	// 4. DC candidate bitsets and typed accessors.
	changed := make([]int, 0, len(ch.DirtyRows)+max(0, newLen-oldLen))
	for _, r := range ch.DirtyRows {
		if r < newLen {
			changed = append(changed, r)
		}
	}
	for i := oldLen; i < newLen; i++ {
		changed = append(changed, i)
	}
	p.patchDCCand(changed, newLen)

	// 5. Reset the phase-1 fill state: every row unfilled, every usedBCol
	// back to null.
	for i := range p.comboOf {
		p.comboOf[i] = -1
	}
	for _, c := range p.usedBCols {
		j := p.vjoin.Schema().MustIndex(c)
		for i := 0; i < newLen; i++ {
			p.vjoin.SetAt(i, j, table.Null())
		}
	}
	return nil
}

// patchDCCand repairs the lazily-built DC candidate bitsets after a patch:
// every bitset is resized to the new row count and the changed rows'
// entries are re-evaluated against the new snapshot. The typed accessors
// for binary-atom columns are rebuilt wholesale (they captured slices of
// the previous snapshot). A problem that never ran phase 2's DC path has
// nothing to patch; ensureDCCand will build against the new snapshot.
func (p *prob) patchDCCand(changed []int, newLen int) {
	if p.dcCand == nil {
		return
	}
	for di, dc := range p.in.DCs {
		for v := 0; v < dc.K; v++ {
			bits := p.dcCand[di][v]
			if newLen <= len(bits) {
				bits = bits[:newLen]
			} else {
				bits = append(bits, make([]bool, newLen-len(bits))...)
			}
			cp := p.colView.Bind(dc.VarPredicate(v))
			for _, r := range changed {
				bits[r] = cp.Eval(r)
			}
			p.dcCand[di][v] = bits
		}
	}
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

// solveMemo records, per phase-2 partition of one solve, everything needed
// to replay the partition's outcome without rebuilding its conflict
// hypergraph: the positional values of the DC-referenced columns (the
// complete input of the coloring), the per-position FK assignment, the
// fresh keys minted (with whether each was actually appended to R̂2), and
// the fresh-key counter on entry. Partitions are keyed by combo id — the
// partition identity phase 1 assigns.
type solveMemo struct {
	parts map[int]*memoPart
}

type memoPart struct {
	n         int           // partition size (rows)
	vals      []table.Value // row-major: n × len(dcColIdx) DC-column values
	fk        []table.Value // per-position FK assignment
	minted    []mintRec
	enterNext int64 // freshKeys.next when the partition's serial tail began
	edges     int
	skipped   int
}

type mintRec struct {
	key      table.Value
	appended bool
}

func newSolveMemo() *solveMemo { return &solveMemo{parts: make(map[int]*memoPart)} }

// dcVals snapshots the DC-referenced column values of a partition's rows,
// row-major — the exact inputs the conflict builder and coloring consume.
func (p *prob) dcVals(rows []int) []table.Value {
	if len(p.dcColIdx) == 0 {
		return nil
	}
	out := make([]table.Value, 0, len(rows)*len(p.dcColIdx))
	for _, r := range rows {
		for _, j := range p.dcColIdx {
			out = append(out, p.vjoin.At(r, j))
		}
	}
	return out
}

// spliceable returns a retained memo entry whose coloring is provably
// identical to what this partition's coloring would compute. The conflict
// hypergraph, palette, and list-coloring of a partition are a pure
// function of (combo, the positional values of the DC-referenced columns
// across its rows, the coloring order option) — row identities never enter
// anywhere — so an entry matches when it has the same combo, the same
// size, and equal values position by position. The FK assignment then
// replays positionally. Memos are consulted newest first; what-if traffic
// that alternates deltas against one base typically matches an older memo
// after a revert. The fresh-key entry condition is checked later, in the
// serial tail, where the live counter is known.
func (p *prob) spliceable(pt partition) *memoPart {
	var want []table.Value // lazily computed once across memos
	for _, m := range p.priors {
		mp, ok := m.parts[pt.combo]
		if !ok || mp.n != len(pt.rows) {
			continue
		}
		if want == nil {
			want = p.dcVals(pt.rows)
		}
		match := true
		for i := range want {
			if want[i] != mp.vals[i] {
				match = false
				break
			}
		}
		if match {
			return mp
		}
	}
	return nil
}

// spliceFinish replays a memoized partition in the serial tail: re-mint the
// recorded fresh keys (appending the used ones to R̂2 in the original
// order) and write the recorded FK assignment. ok is false when the live
// fresh-key counter disagrees with the memo's entry state — the partition
// must then be recomputed. A disagreement after minting began is a bug
// guard surfaced as errSpliceDiverged.
func (ph *phase2) spliceFinish(pt partition, mp *memoPart, cap *solveMemo) (bool, error) {
	p := ph.p
	if len(mp.minted) > 0 && ph.fresh.next != mp.enterNext {
		return false, nil
	}
	enter := ph.fresh.next
	for _, m := range mp.minted {
		k := ph.fresh.mint()
		if k != m.key {
			return false, fmt.Errorf("%w: minted %v, memo %v", errSpliceDiverged, k, m.key)
		}
		if m.appended {
			ph.appendR2Tuple(k, pt.combo)
		}
	}
	p.stat.ConflictEdges += mp.edges
	p.stat.SkippedVertices += mp.skipped
	p.stat.SplicedPartitions++
	for li, ri := range pt.rows {
		key := mp.fk[li]
		ph.fk[ri] = key
		ph.keyRows[key] = append(ph.keyRows[key], ri)
	}
	if cap != nil {
		// The value matrix was verified equal, so the memo's slices carry
		// over verbatim; only the fresh-key entry point is re-stamped.
		cap.parts[pt.combo] = &memoPart{n: mp.n, vals: mp.vals, fk: mp.fk, minted: mp.minted,
			enterNext: enter, edges: mp.edges, skipped: mp.skipped}
	}
	return true, nil
}
