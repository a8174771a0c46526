// Package incr is the incremental solve engine: it separates a solve into a
// reusable plan (the compiled, data-independent problem structure, keyed by
// core.StructuralFingerprint and cached in an LRU) and a warm session that
// re-solves small deltas — a CC bound nudged, rows edited or appended —
// against the retained compiled problem, reusing the phase-1 integer
// program's solution when a delta leaves that program unchanged and
// splicing untouched phase-2 partitions from the previous solve.
//
// The correctness contract is strict: every warm or delta solve produces a
// Result byte-identical to a cold core.Solve of the equivalent patched
// input. The engine only reuses artifacts that are pure functions of inputs
// the delta did not change, and falls back to a cold solve whenever it
// cannot prove reuse sound.
//
// Deltas are always expressed relative to a session's base instance (the
// instance it was opened with), which is the shape of real what-if serving
// traffic: many alternative small deltas probed against one submitted
// instance. The session rebases its working copy between deltas, so probing
// delta A then delta B costs two partial re-solves, not a rebuild.
package incr

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/obsv"
	"repro/internal/sched"
	"repro/internal/table"
)

// CellEdit replaces one R1 cell: row index, column name, new value. Editing
// the FK column is rejected — it is the solver's output, not an input.
type CellEdit struct {
	Row int
	Col string
	Val table.Value
}

// Delta is a change set relative to a session's base instance. The zero
// Delta re-solves the base itself (warm, fully spliced).
type Delta struct {
	// CCTargets remaps CC indices (into the base instance's CC slice) to
	// new targets — the "Ntarget shift" / bound-nudge workload.
	CCTargets map[int]int64
	// R1Edits rewrites attribute cells of existing base rows.
	R1Edits []CellEdit
	// R1Appends adds rows to R1 (full-arity, FK cell conventionally null).
	R1Appends [][]table.Value
}

// IsZero reports whether the delta changes nothing.
func (d Delta) IsZero() bool {
	return len(d.CCTargets) == 0 && len(d.R1Edits) == 0 && len(d.R1Appends) == 0
}

// keepsRows reports whether the delta leaves R1's rows as the base's: it
// changes at most CC targets.
func (d Delta) keepsRows() bool { return len(d.R1Edits) == 0 && len(d.R1Appends) == 0 }

// Engine owns the structural plan cache shared by its sessions. One engine
// per process (or per server) is the intended shape; the zero value is not
// usable, construct with NewEngine.
type Engine struct {
	plans     *cache.LRU[*core.Plan]
	planHits  atomic.Uint64
	planMiss  atomic.Uint64
	openCount atomic.Uint64
}

// NewEngine returns an engine whose plan cache holds at most planEntries
// compiled plans (<= 0 selects 128).
func NewEngine(planEntries int) *Engine {
	return &Engine{plans: cache.NewLRU[*core.Plan](planEntries, nil)}
}

// EngineStats is a snapshot of the engine's reuse counters.
type EngineStats struct {
	Plans        int
	PlanHits     uint64
	PlanMisses   uint64
	SessionsOpen uint64 // sessions ever opened (not live; the caller owns lifetimes)
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		Plans:        e.plans.Len(),
		PlanHits:     e.planHits.Load(),
		PlanMisses:   e.planMiss.Load(),
		SessionsOpen: e.openCount.Load(),
	}
}

// PlanFor returns the compiled plan for the instance's structural
// fingerprint, compiling and caching it on a miss. cached reports whether
// the plan came from the cache — a freshly compiled plan is not "reuse".
func (e *Engine) PlanFor(in core.Input, opt core.Options) (pl *core.Plan, sfp [32]byte, cached bool, err error) {
	sfp, err = core.StructuralFingerprint(in, opt)
	if err != nil {
		return nil, sfp, false, err
	}
	if pl, ok := e.plans.Get(sfp); ok {
		e.planHits.Add(1)
		return pl, sfp, true, nil
	}
	e.planMiss.Add(1)
	pl, err = core.CompilePlan(in, opt)
	if err != nil {
		return nil, sfp, false, err
	}
	e.plans.Put(sfp, pl)
	return pl, sfp, false, nil
}

// cellKey addresses one R1 cell in the undo overlay.
type cellKey struct {
	row int
	col string
}

// Session is a warm solver session over one base instance. It owns copies
// of both relations and both constraint slices, so callers may discard or
// mutate their input after Open — with one caveat: the constraint copies
// are shallow (predicate atom slices stay shared), so mutating an atom of
// a CC/DC passed to Open is not supported. Instead of keeping a second
// pristine copy of R1, the session tracks an undo overlay — the base
// values of every currently-patched cell and target — and rebases the
// working copy between deltas. A session is NOT safe for concurrent use;
// serialize Solve/Resolve calls.
type Session struct {
	eng  *Engine
	opt  core.Options
	pool *sched.Pool

	work        core.Input              // base patched by the currently-applied delta
	baseLen     int                     // base R1 row count (appends live past it)
	baseTargets []int64                 // base CC targets
	overlay     map[cellKey]table.Value // base values of currently-patched cells
	prevTargets map[int]int64           // CC indices currently patched
	prevAppends bool                    // the previous delta appended rows

	state      *core.SessionState
	plan       *core.Plan
	planCached bool // the plan came from the cache, not compiled here
	baseFP     [32]byte
	baseData   *core.FingerprintCheckpoint // the base's fingerprint after its relations; built on first use
	sfp        [32]byte
	solved     bool

	// resumedTargets and resumedKey hold resumeFingerprint's last answer.
	// A resumed key depends on nothing but the CC targets, since the
	// checkpoint, predicates, DCs and options are fixed for the session,
	// so a delta keyed before its solve is not hashed again after it.
	resumedTargets []int64
	resumedKey     [32]byte
}

// Open validates the instance, compiles (or fetches) its structural plan,
// and returns a session ready to Solve. pool, when non-nil, bounds the
// solver's parallelism (core.SolveOnContext semantics); nil derives a pool
// from opt.Workers.
//
//lint:ctxflow opening only clones tables and stores the pool; no solver work runs until Solve/Resolve, whose Context variants carry cancellation
func (e *Engine) Open(in core.Input, opt core.Options, pool *sched.Pool) (*Session, error) {
	if in.R1 == nil || in.R2 == nil {
		return nil, fmt.Errorf("incr: nil relation")
	}
	baseFP, err := core.Fingerprint(in, opt)
	if err != nil {
		return nil, err
	}
	return e.OpenKeyed(in, opt, pool, baseFP)
}

// OpenKeyed is Open for callers that already computed the instance's full
// content fingerprint (the serving layer fingerprints every request before
// deciding to open a session); it skips recomputing it. Opening is cheap —
// one R1 clone plus bookkeeping; the structural plan is fetched (or
// compiled) lazily at the first solve, so a session can be parked behind a
// cache hit without paying for classification it may never need.
//
//lint:ctxflow opening only clones tables and stores the pool; no solver work runs until Solve/Resolve, whose Context variants carry cancellation
func (e *Engine) OpenKeyed(in core.Input, opt core.Options, pool *sched.Pool, baseFP [32]byte) (*Session, error) {
	if in.R1 == nil || in.R2 == nil {
		return nil, fmt.Errorf("incr: nil relation")
	}
	if pool == nil {
		pool = core.PoolFor(opt)
	}
	work := in
	work.R1 = in.R1.Clone()
	work.R2 = in.R2.Clone()
	work.CCs = append([]constraint.CC(nil), in.CCs...)
	work.DCs = append([]constraint.DC(nil), in.DCs...)
	baseTargets := make([]int64, len(in.CCs))
	for i, cc := range in.CCs {
		baseTargets[i] = cc.Target
	}
	e.openCount.Add(1)
	return &Session{
		eng: e, opt: opt, pool: pool,
		work: work, baseLen: work.R1.Len(), baseTargets: baseTargets,
		overlay: make(map[cellKey]table.Value),
		state:   core.NewSessionState(),
		baseFP:  baseFP,
	}, nil
}

// BaseFingerprint returns the full content fingerprint of the session's
// base instance — the key delta requests reference.
func (s *Session) BaseFingerprint() [32]byte { return s.baseFP }

// StructuralFingerprint returns the structural fingerprint of the most
// recent solve's instance (the plan cache key); zero before the first
// solve — the plan is resolved lazily.
func (s *Session) StructuralFingerprint() [32]byte { return s.sfp }

// Instance returns the session's working input: the base instance patched
// by the most recently resolved delta. The returned value shares the
// session's mutable state — read it only between calls (or while holding
// whatever lock serializes the session) and never mutate it. The serving
// layer uses it to evaluate quality metrics on the patched instance when
// encoding a delta response.
func (s *Session) Instance() core.Input { return s.work }

// Solve solves the base instance: cold (plan-assisted) on the first call,
// warm — fully spliced — on repeats. It also primes the warm state the
// first Resolve builds on.
func (s *Session) Solve() (*core.Result, error) {
	res, _, err := s.resolve(nil, Delta{})
	return res, err
}

// SolveContext is Solve with cooperative cancellation
// (core.SolveOnContext semantics). A canceled solve drops the session's
// warm state; the next solve runs cold.
func (s *Session) SolveContext(ctx context.Context) (*core.Result, error) {
	res, _, err := s.resolve(ctx, Delta{})
	return res, err
}

// Resolve solves the base instance patched by delta and returns the result
// together with the full content fingerprint of the patched instance (the
// cache key an equivalent cold submission would carry). The result is
// byte-identical to core.Solve on the patched instance.
func (s *Session) Resolve(d Delta) (*core.Result, [32]byte, error) {
	return s.ResolveContext(nil, d)
}

// ResolveContext is Resolve with cooperative cancellation
// (core.SolveOnContext semantics: checked at the solver's phase
// boundaries, nil never cancels). A canceled solve drops the session's
// warm state; the next solve runs cold.
func (s *Session) ResolveContext(ctx context.Context, d Delta) (*core.Result, [32]byte, error) {
	if err := s.validate(d); err != nil {
		return nil, [32]byte{}, err
	}
	return s.resolve(ctx, d)
}

// Plan returns the session's resolved structural plan — nil until the first
// cold solve resolves it. The serving layer persists it alongside parked
// session state so a restarted process skips re-classification.
func (s *Session) Plan() *core.Plan { return s.plan }

// AdoptPlan inserts an externally obtained plan (e.g. one restored from the
// durable store) into the engine's cache under its own structural key, so
// sessions opened after a restart find it and classify as warm rather than
// compiling cold.
func (e *Engine) AdoptPlan(pl *core.Plan) {
	if pl != nil {
		e.plans.Put(pl.Key(), pl)
	}
}

// PatchedFingerprint computes the full content fingerprint of the base
// instance patched by d — the cache key Resolve(d) would return — WITHOUT
// solving. The serving layer uses it to answer a delta from the result
// cache with zero solver work. The session's working copy, overlay and
// warm state are untouched, but the call may fill the session's
// fingerprint checkpoint, so it must be serialized with the session's
// other calls. A delta that only re-targets CCs resumes from that
// checkpoint and hashes just the constraints and options; one that edits
// or appends R1 costs one R1 clone and a full fingerprint.
func (s *Session) PatchedFingerprint(d Delta) ([32]byte, error) {
	if err := s.validate(d); err != nil {
		return [32]byte{}, err
	}
	if d.IsZero() {
		return s.baseFP, nil
	}
	// The base's CCs with d's targets applied.
	ccs := append([]constraint.CC(nil), s.work.CCs...)
	for i := range ccs {
		ccs[i].Target = s.baseTargets[i]
	}
	//lint:ordered distinct CC indices write distinct slots; validate already rejected bad indices
	for i, t := range d.CCTargets {
		ccs[i].Target = t
	}
	if d.keepsRows() {
		return s.resumeFingerprint(ccs)
	}
	in := s.work
	in.R1 = s.baseR1Clone()
	for _, ed := range d.R1Edits {
		in.R1.Set(ed.Row, ed.Col, ed.Val)
	}
	for _, row := range d.R1Appends {
		in.R1.MustAppend(row...)
	}
	in.CCs = ccs
	return core.Fingerprint(in, s.opt)
}

// resumeFingerprint returns the fingerprint of the base instance with its
// CCs replaced by ccs, from the checkpoint of the base's data part. The
// checkpoint is built on first use, from the working copy when it carries
// no row change, else from a clone rebuilt to the base. The last key is
// remembered with its targets.
func (s *Session) resumeFingerprint(ccs []constraint.CC) ([32]byte, error) {
	if s.resumedTargets != nil && slices.EqualFunc(ccs, s.resumedTargets, func(cc constraint.CC, t int64) bool {
		return cc.Target == t
	}) {
		return s.resumedKey, nil
	}
	if s.baseData == nil {
		in := s.work
		if len(s.overlay) > 0 || in.R1.Len() > s.baseLen {
			in.R1 = s.baseR1Clone()
		}
		cp, err := core.NewFingerprintCheckpoint(in)
		if err != nil {
			return [32]byte{}, err
		}
		s.baseData = &cp
	}
	key, err := s.baseData.Resume(ccs, s.work.DCs, s.opt)
	if err != nil {
		return key, err
	}
	s.resumedTargets = s.resumedTargets[:0]
	for _, cc := range ccs {
		s.resumedTargets = append(s.resumedTargets, cc.Target)
	}
	s.resumedKey = key
	return key, nil
}

// baseR1Clone returns a copy of the base instance's R1, rebuilt from the
// working copy: the overlay undone and the appended rows withdrawn.
func (s *Session) baseR1Clone() *table.Relation {
	r1 := s.work.R1.Clone()
	//lint:ordered each overlay entry restores a distinct cell of the clone
	for cell, v := range s.overlay {
		r1.Set(cell.row, cell.col, v)
	}
	if r1.Len() > s.baseLen {
		r1.Truncate(s.baseLen)
	}
	return r1
}

// validate rejects deltas that do not type-check against the base instance.
func (s *Session) validate(d Delta) error {
	baseLen := s.baseLen
	schema := s.work.R1.Schema()
	// Validate CC targets in ascending index order so a delta with several
	// bad entries always reports the same one — ranging the map here made
	// the error (and thus the service's HTTP response) vary run to run.
	ccIdxs := make([]int, 0, len(d.CCTargets))
	for i := range d.CCTargets {
		ccIdxs = append(ccIdxs, i)
	}
	sort.Ints(ccIdxs)
	for _, i := range ccIdxs {
		t := d.CCTargets[i]
		if i < 0 || i >= len(s.work.CCs) {
			return fmt.Errorf("incr: delta: CC index %d out of range (instance has %d CCs)", i, len(s.work.CCs))
		}
		if t < 0 {
			return fmt.Errorf("incr: delta: CC %d: negative target %d", i, t)
		}
	}
	for _, ed := range d.R1Edits {
		if ed.Row < 0 || ed.Row >= baseLen {
			return fmt.Errorf("incr: delta: edit row %d out of range (R1 has %d rows)", ed.Row, baseLen)
		}
		j, ok := schema.Index(ed.Col)
		if !ok {
			return fmt.Errorf("incr: delta: edit column %q not in R1", ed.Col)
		}
		if ed.Col == s.work.FK {
			return fmt.Errorf("incr: delta: column %q is the FK output column; it cannot be edited", ed.Col)
		}
		if !ed.Val.IsNull() {
			want := schema.Col(j).Type
			if (want == table.TypeInt && ed.Val.Kind() != table.KindInt) ||
				(want == table.TypeString && ed.Val.Kind() != table.KindString) {
				return fmt.Errorf("incr: delta: edit row %d column %q: value kind %v does not match column type %v",
					ed.Row, ed.Col, ed.Val.Kind(), want)
			}
		}
	}
	for i, row := range d.R1Appends {
		if len(row) != schema.Len() {
			return fmt.Errorf("incr: delta: appended row %d has %d cells, R1 schema has %d columns",
				i, len(row), schema.Len())
		}
		for j, v := range row {
			if v.IsNull() {
				continue
			}
			want := schema.Col(j).Type
			if (want == table.TypeInt && v.Kind() != table.KindInt) ||
				(want == table.TypeString && v.Kind() != table.KindString) {
				return fmt.Errorf("incr: delta: appended row %d column %q: value kind %v does not match column type %v",
					i, schema.Col(j).Name, v.Kind(), want)
			}
		}
	}
	return nil
}

// resolve rebases the working instance from the previously applied delta to
// d, declares the combined change set, and runs the session solve.
func (s *Session) resolve(ctx context.Context, d Delta) (*core.Result, [32]byte, error) {
	tr := obsv.FromContext(ctx)
	ch := s.rebase(d)
	if !s.solved {
		ch.Full = true
	}
	if ch.Full && s.plan == nil {
		// Lazy plan resolution: compiled (or fetched) only when a cold
		// build actually needs it. Failure is not fatal — the solver
		// classifies directly.
		if pl, sfp, cached, err := s.eng.PlanFor(s.work, s.opt); err == nil {
			s.plan, s.sfp, s.planCached = pl, sfp, cached
			if cached {
				tr.Event("session: structural plan cache hit")
			} else {
				tr.Event("session: structural plan compiled")
			}
		}
	}
	res, err := core.SolveSessionContext(ctx, s.work, s.opt, s.state, ch, s.plan, s.pool)
	if res != nil {
		tr.Event(fmt.Sprintf("session: solve reuse prob=%t plan=%t spliced=%d",
			res.Stats.ProbReused, res.Stats.PlanReused, res.Stats.SplicedPartitions))
	}
	if res != nil && !s.planCached {
		// The plan was compiled by this very session; classification was
		// not reused from anywhere, whatever the solver's flag says.
		res.Stats.PlanReused = false
	}
	if err != nil {
		// The warm state may be stale; drop it so the next call runs cold.
		s.state.Reset()
		s.solved = false
		return nil, [32]byte{}, err
	}
	s.solved = true
	key := s.baseFP
	switch {
	case d.IsZero():
	case d.keepsRows():
		// The rebase left R1 as the base's, so only the targets differ.
		key, err = s.resumeFingerprint(s.work.CCs)
	default:
		key, err = core.Fingerprint(s.work, s.opt)
	}
	if err != nil {
		return nil, [32]byte{}, err
	}
	return res, key, nil
}

// rebase mutates the working instance from (base ∘ prev) to (base ∘ d) and
// returns the Changes contract covering both transitions: rows restored
// from the undo overlay and rows edited by d are all declared dirty.
func (s *Session) rebase(d Delta) core.Changes {
	baseLen := s.baseLen
	dirtyRows := make(map[int]bool)
	dirtyCols := make(map[string]bool)

	// Undo the previous delta: restore patched cells from the overlay,
	// withdraw appended rows, restore patched targets.
	//lint:ordered each overlay entry restores a distinct cell and marks set entries; no write overlaps another
	for cell, v := range s.overlay {
		s.work.R1.Set(cell.row, cell.col, v)
		dirtyRows[cell.row] = true
		dirtyCols[cell.col] = true
	}
	clear(s.overlay)
	if s.work.R1.Len() > baseLen {
		s.work.R1.Truncate(baseLen)
	}
	targets := false
	//lint:ordered distinct CC indices write distinct slots; targets only latches true
	for i := range s.prevTargets {
		s.work.CCs[i].Target = s.baseTargets[i]
		targets = true
	}

	// Apply d, recording base values into the overlay.
	s.prevTargets = nil
	if len(d.CCTargets) > 0 {
		s.prevTargets = make(map[int]int64, len(d.CCTargets))
		//lint:ordered distinct CC indices write distinct slots; validate already rejected bad indices deterministically
		for i, t := range d.CCTargets {
			s.prevTargets[i] = t
			s.work.CCs[i].Target = t
			targets = true
		}
	}
	for _, ed := range d.R1Edits {
		ck := cellKey{row: ed.Row, col: ed.Col}
		if _, ok := s.overlay[ck]; !ok {
			s.overlay[ck] = s.work.R1.Value(ed.Row, ed.Col)
		}
		s.work.R1.Set(ed.Row, ed.Col, ed.Val)
		dirtyRows[ed.Row] = true
		dirtyCols[ed.Col] = true
	}
	for _, row := range d.R1Appends {
		s.work.R1.MustAppend(row...)
	}
	// Row indices past the base length are recycled across deltas (truncate
	// then re-append), so a row index present in both the previous and the
	// new appended tail may carry entirely different values; declare every
	// appended index dirty across every column so the compiled problem's
	// patch path rewrites those cells and rebuilds their snapshot columns.
	if s.prevAppends || len(d.R1Appends) > 0 {
		for i := baseLen; i < s.work.R1.Len(); i++ {
			dirtyRows[i] = true
		}
		for _, c := range s.work.R1.Schema().Names() {
			dirtyCols[c] = true
		}
	}
	s.prevAppends = len(d.R1Appends) > 0

	ch := core.Changes{CCTargets: targets}
	if len(dirtyRows) > 0 {
		ch.DirtyRows = make([]int, 0, len(dirtyRows))
		for r := range dirtyRows {
			ch.DirtyRows = append(ch.DirtyRows, r)
		}
		sort.Ints(ch.DirtyRows)
		ch.DirtyCols = make([]string, 0, len(dirtyCols))
		for c := range dirtyCols {
			ch.DirtyCols = append(ch.DirtyCols, c)
		}
		sort.Strings(ch.DirtyCols)
	}
	return ch
}
