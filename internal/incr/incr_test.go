package incr

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/census"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/obsv"
	"repro/internal/table"
)

// relFingerprint serializes a relation byte-for-byte (the golden_test.go
// hashing harness: name, schema, every cell in row order).
func relFingerprint(r *table.Relation) string {
	var b strings.Builder
	b.WriteString(r.Name)
	b.WriteByte('|')
	b.WriteString(strings.Join(r.Schema().Names(), ","))
	for i := 0; i < r.Len(); i++ {
		b.WriteByte('\n')
		b.WriteString(table.EncodeKey(r.Row(i)...))
	}
	return b.String()
}

func resultFingerprint(res *core.Result) [3]string {
	return [3]string{relFingerprint(res.R1Hat), relFingerprint(res.R2Hat), relFingerprint(res.VJoin)}
}

func censusInstance(hh, nCC int, seed int64) core.Input {
	d := census.Generate(census.Config{Households: hh, Areas: 6, Seed: seed})
	return censusInput(d, d.GoodCCs(nCC))
}

// censusBadInstance is censusInstance with intersecting CCs (S_bad_CC), of
// which the hybrid sends most to Algorithm 1.
func censusBadInstance(hh, nCC int, seed int64) core.Input {
	d := census.Generate(census.Config{Households: hh, Areas: 6, Seed: seed})
	return censusInput(d, d.BadCCs(nCC))
}

func censusInput(d *census.Data, ccs []constraint.CC) core.Input {
	return core.Input{
		R1: d.Persons, R2: d.Housing,
		K1: "pid", K2: "hid", FK: "hid",
		CCs: ccs, DCs: census.AllDCs(),
	}
}

// canonicalStats zeroes the Stats fields a response body zeroes: the
// timings and the warm-state reuse flags. What is left must not depend on
// whether a solve ran warm or cold.
func canonicalStats(st core.Stats) core.Stats {
	st.Pairwise, st.Recursion, st.ILPTime, st.Coloring = 0, 0, 0, 0
	st.Phase1, st.Phase2, st.Total = 0, 0, 0
	st.PlanReused, st.ProbReused, st.SplicedPartitions = false, false, 0
	return st
}

// solveRouted is a cold solve that also reports the CCs it routed to
// Algorithm 2 (hasse) and to Algorithm 1 (ilp), read off its explain
// report.
func solveRouted(t testing.TB, in core.Input, opt core.Options) (res *core.Result, hasse, ilp []int) {
	t.Helper()
	tr := obsv.NewTrace("routes", "solve", "")
	tr.RequestExplain()
	res, err := core.SolveOnContext(obsv.WithTrace(context.Background(), tr), in, opt, nil)
	if err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	for _, cc := range tr.Explain().CCs {
		switch cc.Route {
		case "hasse":
			hasse = append(hasse, cc.Index)
		case "ilp":
			ilp = append(ilp, cc.Index)
		}
	}
	return res, hasse, ilp
}

// nudgedTarget moves CC i's target by up to 3 either way, never below 0.
func nudgedTarget(rng *rand.Rand, base core.Input, i int) int64 {
	return max(0, base.CCs[i].Target+int64(rng.Intn(7)-3))
}

// applyDeltaCold materializes base∘d as a fresh input for the cold oracle.
func applyDeltaCold(t *testing.T, base core.Input, d Delta) core.Input {
	t.Helper()
	out := base
	out.R1 = base.R1.Clone()
	out.CCs = append([]constraint.CC(nil), base.CCs...)
	for i, tg := range d.CCTargets {
		out.CCs[i].Target = tg
	}
	for _, ed := range d.R1Edits {
		out.R1.Set(ed.Row, ed.Col, ed.Val)
	}
	for _, row := range d.R1Appends {
		out.R1.MustAppend(row...)
	}
	return out
}

// randomDelta draws a small change set of the serving shape: target nudges,
// attribute edits, occasional appended rows.
func randomDelta(rng *rand.Rand, base core.Input) Delta {
	var d Delta
	if rng.Intn(2) == 0 || len(base.CCs) == 0 {
		d.CCTargets = map[int]int64{}
		for k := 0; k < 1+rng.Intn(3) && len(base.CCs) > 0; k++ {
			i := rng.Intn(len(base.CCs))
			d.CCTargets[i] = nudgedTarget(rng, base, i)
		}
	}
	if rng.Intn(2) == 0 && base.R1.Len() > 0 {
		for k := 0; k < 1+rng.Intn(3); k++ {
			row := rng.Intn(base.R1.Len())
			switch rng.Intn(2) {
			case 0:
				d.R1Edits = append(d.R1Edits, CellEdit{Row: row, Col: "Age", Val: table.Int(int64(rng.Intn(90)))})
			default:
				rels := []string{"Owner", "Child", "Member"}
				d.R1Edits = append(d.R1Edits, CellEdit{Row: row, Col: "Rel", Val: table.String(rels[rng.Intn(len(rels))])})
			}
		}
	}
	if rng.Intn(3) == 0 {
		next := int64(100000 + rng.Intn(1000))
		for k := 0; k < 1+rng.Intn(2); k++ {
			d.R1Appends = append(d.R1Appends, []table.Value{
				table.Int(next + int64(k)), table.String("Member"),
				table.Int(int64(20 + rng.Intn(50))), table.Int(int64(rng.Intn(2))), table.Null(),
			})
		}
	}
	return d
}

// TestSessionDeltaEquivalence is the golden-equivalence property test: for
// a grid of instances, modes, and seeds, a warm session chased through
// deltas must produce results byte-identical to cold solves of the
// equivalent patched inputs, with equal canonical Stats — including
// re-solving the base between deltas (the rebase path). The deltas nudge a
// Hasse-routed CC, then an ILP-routed one, then draw random nudges, edits
// and appends; the intersecting CCs of the bad instance put most of its
// set in Algorithm 1's program, which a session keeps across solves.
func TestSessionDeltaEquivalence(t *testing.T) {
	instances := []struct {
		name string
		in   core.Input
	}{
		{"census-40x16", censusInstance(40, 16, 11)},
		{"census-60x24", censusInstance(60, 24, 7)},
		{"census-30x8", censusInstance(30, 8, 3)},
		{"census-bad-60x40", censusBadInstance(60, 40, 7)},
	}
	modes := []struct {
		name string
		opt  core.Options
	}{
		{"hybrid", core.Options{}},
		{"ilp-only", core.Options{Mode: core.ModeILPOnly}},
		{"hasse-only", core.Options{Mode: core.ModeHasseOnly}},
		{"input-order", core.Options{Order: core.OrderInput}},
		{"no-partition", core.Options{NoPartition: true}},
		{"baseline", core.BaselineOptions(0)},
	}
	eng := NewEngine(16)
	for _, inst := range instances {
		for _, mode := range modes {
			for _, seed := range []int64{1, 42} {
				t.Run(fmt.Sprintf("%s/%s/seed=%d", inst.name, mode.name, seed), func(t *testing.T) {
					opt := mode.opt
					opt.Seed = seed
					rng := rand.New(rand.NewSource(seed * 31))

					sess, err := eng.Open(inst.in, opt, nil)
					if err != nil {
						t.Fatalf("open: %v", err)
					}
					warmBase, err := sess.Solve()
					if err != nil {
						t.Fatalf("session solve: %v", err)
					}
					coldBase, hasse, ilp := solveRouted(t, inst.in, opt)
					if resultFingerprint(warmBase) != resultFingerprint(coldBase) {
						t.Fatalf("base session solve differs from cold solve")
					}
					if canonicalStats(warmBase.Stats) != canonicalStats(coldBase.Stats) {
						t.Fatalf("base session stats %+v, cold %+v", warmBase.Stats, coldBase.Stats)
					}

					var deltas []Delta
					for _, ccs := range [][]int{hasse, ilp} {
						if len(ccs) > 0 {
							i := ccs[rng.Intn(len(ccs))]
							deltas = append(deltas, Delta{CCTargets: map[int]int64{i: nudgedTarget(rng, inst.in, i)}})
						}
					}
					for round := 0; round < 4; round++ {
						deltas = append(deltas, randomDelta(rng, inst.in))
					}
					for round, d := range deltas {
						warm, _, err := sess.Resolve(d)
						if err != nil {
							t.Fatalf("round %d: session resolve: %v", round, err)
						}
						cold, err := core.Solve(applyDeltaCold(t, inst.in, d), opt)
						if err != nil {
							t.Fatalf("round %d: cold solve: %v", round, err)
						}
						if resultFingerprint(warm) != resultFingerprint(cold) {
							t.Fatalf("round %d: delta solve differs from cold solve (delta %+v)", round, d)
						}
						if canonicalStats(warm.Stats) != canonicalStats(cold.Stats) {
							t.Fatalf("round %d: delta stats %+v, cold %+v (delta %+v)", round, warm.Stats, cold.Stats, d)
						}
					}

					// Rebase back to the base instance: still identical.
					warmAgain, err := sess.Solve()
					if err != nil {
						t.Fatalf("re-solve base: %v", err)
					}
					if resultFingerprint(warmAgain) != resultFingerprint(coldBase) {
						t.Fatalf("re-solved base differs from cold solve")
					}
					if canonicalStats(warmAgain.Stats) != canonicalStats(coldBase.Stats) {
						t.Fatalf("re-solved base stats %+v, cold %+v", warmAgain.Stats, coldBase.Stats)
					}
				})
			}
		}
	}
}

// TestSessionSplices asserts the delta path actually splices (the perf
// mechanism, not just the correctness contract): after a single CC target
// nudge on a partition-rich instance, most partitions must be reused and
// the compiled problem must be patched rather than rebuilt.
func TestSessionSplices(t *testing.T) {
	in := censusInstance(60, 24, 11)
	eng := NewEngine(4)
	sess, err := eng.Open(in, core.Options{Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Solve(); err != nil {
		t.Fatal(err)
	}
	res, _, err := sess.Resolve(Delta{CCTargets: map[int]int64{0: in.CCs[0].Target + 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.ProbReused {
		t.Errorf("delta solve did not reuse the compiled problem")
	}
	if res.Stats.Partitions == 0 {
		t.Fatalf("instance produced no partitions; test is vacuous")
	}
	if res.Stats.SplicedPartitions == 0 {
		t.Errorf("delta solve spliced no partitions (of %d)", res.Stats.Partitions)
	}
	t.Logf("spliced %d of %d partitions", res.Stats.SplicedPartitions, res.Stats.Partitions)
}

// TestSessionReusesILP is TestSessionSplices for phase I, read off each
// solve's trace: after the base solve builds Algorithm 1's program, a
// target nudge of a Hasse-routed CC that leaves the same rows unfilled
// keeps the program and its solution, while a nudge of an ILP-routed CC,
// an edit and an append each rebuild it.
func TestSessionReusesILP(t *testing.T) {
	in := censusBadInstance(60, 40, 7)
	opt := core.Options{Seed: 1}
	// On this instance a nudge of CC 2 leaves the same rows unfilled; one
	// that moves the fill, as one of CC 1 does, rebuilds the program.
	const hasseCC, ilpCC = 2, 6
	_, hasse, ilp := solveRouted(t, in, opt)
	if !slices.Contains(hasse, hasseCC) || !slices.Contains(ilp, ilpCC) {
		t.Fatalf("routes moved: hasse %v, ilp %v; pick CCs anew", hasse, ilp)
	}
	sess, err := NewEngine(4).Open(in, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	// ilpEvent resolves d and returns the solve's one Algorithm 1 event.
	ilpEvent := func(name string, d Delta) string {
		t.Helper()
		tr := obsv.NewTrace("reuse", "delta", "")
		if _, _, err := sess.ResolveContext(obsv.WithTrace(context.Background(), tr), d); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var got []string
		for _, ev := range tr.Snapshot().Events {
			if strings.HasPrefix(ev.Msg, "ilp: ") {
				got = append(got, ev.Msg)
			}
		}
		if len(got) != 1 {
			t.Fatalf("%s: Algorithm 1 events %q, want one", name, got)
		}
		return got[0]
	}
	const kept, built = "ilp: program kept", "ilp: program built"
	if got := ilpEvent("base", Delta{}); got != built {
		t.Fatalf("base: %q, want %q", got, built)
	}
	for _, step := range []struct {
		name string
		d    Delta
		want string
	}{
		{"hasse nudge", Delta{CCTargets: map[int]int64{hasseCC: in.CCs[hasseCC].Target + 1}}, kept},
		// The rebase restores the Hasse CC, and this edit leaves the same
		// rows unfilled: only the dirty row tells that the program's bins
		// no longer hold (the kept solution would fill it wrongly).
		{"edit", Delta{R1Edits: []CellEdit{{Row: 15, Col: "Age", Val: table.Int(3)}}}, built},
		{"append", Delta{R1Appends: [][]table.Value{
			{table.Int(800001), table.String("Member"), table.Int(41), table.Int(1), table.Null()},
		}}, built},
		{"ilp nudge", Delta{CCTargets: map[int]int64{ilpCC: in.CCs[ilpCC].Target + 1}}, built},
		{"same targets", Delta{CCTargets: map[int]int64{ilpCC: in.CCs[ilpCC].Target + 1}}, kept},
		{"ilp nudge again", Delta{CCTargets: map[int]int64{ilpCC: in.CCs[ilpCC].Target + 2}}, built},
	} {
		if got := ilpEvent(step.name, step.d); got != step.want {
			t.Errorf("%s: %q, want %q", step.name, got, step.want)
		}
	}
}

// TestPlanCacheHit: two sessions over structurally identical instances with
// different data share one compiled plan (plans resolve lazily at the
// first solve).
func TestPlanCacheHit(t *testing.T) {
	eng := NewEngine(4)
	a := censusInstance(40, 16, 11)
	sa, err := eng.Open(a, core.Options{Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Stats(); got.PlanMisses != 0 {
		t.Fatalf("open should not compile a plan yet: stats %+v", got)
	}
	if _, err := sa.Solve(); err != nil {
		t.Fatal(err)
	}
	if got := eng.Stats(); got.PlanMisses != 1 || got.PlanHits != 0 {
		t.Fatalf("first solve: stats %+v", got)
	}
	// Same generator config and CC count → same constraint structure; a
	// cell edit changes only the data.
	b := censusInstance(40, 16, 11)
	b.R1 = b.R1.Clone()
	b.R1.Set(0, "Age", table.Int(33)) // different data, same structure
	sb, err := eng.Open(b, core.Options{Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sb.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Stats(); got.PlanHits != 1 {
		t.Fatalf("second session's solve should hit the plan cache: stats %+v", got)
	}
	if !res.Stats.PlanReused {
		t.Errorf("second session's solve did not mark PlanReused")
	}
}

// TestReappendedRowsAreDirty pins the truncate-then-reappend hazard: two
// consecutive deltas append different rows at the same recycled index; the
// second resolve must not splice colorings computed against the first
// append's values.
func TestReappendedRowsAreDirty(t *testing.T) {
	in := censusInstance(40, 16, 11)
	eng := NewEngine(4)
	opt := core.Options{Seed: 1}
	sess, err := eng.Open(in, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Solve(); err != nil {
		t.Fatal(err)
	}
	mkRow := func(pid, age int64) []table.Value {
		return []table.Value{table.Int(pid), table.String("Member"), table.Int(age), table.Int(0), table.Null()}
	}
	dA := Delta{R1Appends: [][]table.Value{mkRow(90001, 50)}}
	if _, _, err := sess.Resolve(dA); err != nil {
		t.Fatal(err)
	}
	// Same index, very different age: the prior coloring of the partition
	// holding the appended row must not be replayed.
	dB := Delta{R1Appends: [][]table.Value{mkRow(90002, 7)}}
	warm, _, err := sess.Resolve(dB)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := core.Solve(applyDeltaCold(t, in, dB), opt)
	if err != nil {
		t.Fatal(err)
	}
	if resultFingerprint(warm) != resultFingerprint(cold) {
		t.Fatalf("re-appended row splice divergence: warm result differs from cold")
	}
}

// TestDeltaValidation rejects malformed deltas.
func TestDeltaValidation(t *testing.T) {
	in := censusInstance(20, 8, 5)
	eng := NewEngine(4)
	sess, err := eng.Open(in, core.Options{Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := []Delta{
		{CCTargets: map[int]int64{len(in.CCs): 5}},
		{CCTargets: map[int]int64{0: -1}},
		{R1Edits: []CellEdit{{Row: in.R1.Len(), Col: "Age", Val: table.Int(1)}}},
		{R1Edits: []CellEdit{{Row: 0, Col: "nope", Val: table.Int(1)}}},
		{R1Edits: []CellEdit{{Row: 0, Col: "hid", Val: table.Int(1)}}},
		{R1Edits: []CellEdit{{Row: 0, Col: "Age", Val: table.String("x")}}},
		{R1Appends: [][]table.Value{{table.Int(1)}}},
	}
	for i, d := range bad {
		if _, _, err := sess.Resolve(d); err == nil {
			t.Errorf("bad delta %d accepted", i)
		}
	}
}

// TestPatchedFingerprint: the key computed without solving must equal the
// key Resolve returns for the same delta, and computing it must not disturb
// the session — the subsequent resolve stays byte-identical to the cold
// oracle.
func TestPatchedFingerprint(t *testing.T) {
	base := censusInstance(40, 12, 5)
	opt := core.Options{Seed: 9}
	eng := NewEngine(8)
	s, err := eng.Open(base, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	if fp, err := s.PatchedFingerprint(Delta{}); err != nil || fp != s.BaseFingerprint() {
		t.Fatalf("zero delta: fp=%x err=%v, want base fingerprint", fp, err)
	}
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 8; iter++ {
		d := randomDelta(rng, base)
		pre, err := s.PatchedFingerprint(d)
		if err != nil {
			t.Fatalf("iter %d: patched fingerprint: %v", iter, err)
		}
		res, key, err := s.Resolve(d)
		if err != nil {
			t.Fatalf("iter %d: resolve: %v", iter, err)
		}
		if pre != key {
			t.Fatalf("iter %d: PatchedFingerprint %x != Resolve key %x", iter, pre, key)
		}
		// The pre-computed key must also match a from-scratch fingerprint of
		// the patched input, and the session must still match the cold oracle.
		cold := applyDeltaCold(t, base, d)
		want, err := core.Fingerprint(cold, opt)
		if err != nil {
			t.Fatal(err)
		}
		if pre != want {
			t.Fatalf("iter %d: fingerprint differs from cold oracle", iter)
		}
		coldRes, err := core.Solve(cold, opt)
		if err != nil {
			t.Fatalf("iter %d: cold solve: %v", iter, err)
		}
		if resultFingerprint(res) != resultFingerprint(coldRes) {
			t.Fatalf("iter %d: warm result diverged from cold after PatchedFingerprint", iter)
		}
	}
	// Invalid deltas are rejected without touching state.
	if _, err := s.PatchedFingerprint(Delta{CCTargets: map[int]int64{999: 1}}); err == nil {
		t.Fatal("out-of-range CC index accepted")
	}
}

// TestPatchedFingerprintSequence chases one session through a fixed order
// of deltas so that target-only deltas, which key from the session's
// fingerprint checkpoint, follow deltas that changed R1: the checkpoint is
// first needed while the working copy carries an edit, and needed again
// while it carries appended rows. Every step's key must agree across
// PatchedFingerprint, Resolve and a cold fingerprint of the patched
// instance. The session either asks PatchedFingerprint first, as the
// serving layer does, or resolves first, so that either call can be the
// one that builds the checkpoint. The session remembers its last resumed
// key, so target deltas then alternate, with an edit between them: a key
// remembered for one target vector must never answer another.
func TestPatchedFingerprintSequence(t *testing.T) {
	base := censusInstance(40, 12, 7)
	opt := core.Options{Seed: 5}
	edit := Delta{R1Edits: []CellEdit{{Row: 3, Col: "Age", Val: table.Int(61)}, {Row: 0, Col: "Rel", Val: table.String("Child")}}}
	targetsA := Delta{CCTargets: map[int]int64{1: base.CCs[1].Target + 2}}
	targetsB := Delta{CCTargets: map[int]int64{0: base.CCs[0].Target + 1, 2: 0}}
	steps := []struct {
		name string
		d    Delta
	}{
		{"edit", edit},
		{"targets after edit", targetsA},
		{"append", Delta{R1Appends: [][]table.Value{
			{table.Int(700001), table.String("Member"), table.Int(41), table.Int(1), table.Null()},
		}}},
		{"targets after append", targetsB},
		{"zero", Delta{}},
		{"targets A", targetsA},
		{"targets B", targetsB},
		{"edit between", edit},
		{"targets B after edit", targetsB},
		{"targets A after B", targetsA},
	}
	for _, patchedFirst := range []bool{true, false} {
		s, err := NewEngine(8).Open(base, opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Solve(); err != nil {
			t.Fatal(err)
		}
		for _, st := range steps {
			name := fmt.Sprintf("%s (patched first %v)", st.name, patchedFirst)
			var pre, key [32]byte
			patched := func() {
				if pre, err = s.PatchedFingerprint(st.d); err != nil {
					t.Fatalf("%s: patched fingerprint: %v", name, err)
				}
			}
			if patchedFirst {
				patched()
			}
			if _, key, err = s.Resolve(st.d); err != nil {
				t.Fatalf("%s: resolve: %v", name, err)
			}
			if !patchedFirst {
				patched()
			}
			want, err := core.Fingerprint(applyDeltaCold(t, base, st.d), opt)
			if err != nil {
				t.Fatal(err)
			}
			if pre != want || key != want {
				t.Fatalf("%s: PatchedFingerprint %x, Resolve key %x, cold fingerprint %x", name, pre, key, want)
			}
		}
	}
}

// TestAdoptPlan: a plan decoded from its binary form and adopted into a
// fresh engine must serve the first solve as a cache hit (warm
// classification), matching the original solve byte for byte.
func TestAdoptPlan(t *testing.T) {
	in := censusInstance(40, 12, 3)
	opt := core.Options{Seed: 4}

	eng1 := NewEngine(8)
	s1, err := eng1.Open(in, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := s1.Solve()
	if err != nil {
		t.Fatal(err)
	}
	pl := s1.Plan()
	if pl == nil {
		t.Fatal("no plan after first solve")
	}

	enc := core.EncodePlan(pl)
	restored, err := core.DecodePlan(enc)
	if err != nil {
		t.Fatal(err)
	}
	eng2 := NewEngine(8)
	eng2.AdoptPlan(restored)
	s2, err := eng2.Open(in, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := s2.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if resultFingerprint(res1) != resultFingerprint(res2) {
		t.Fatal("solve with adopted plan diverged")
	}
	st := eng2.Stats()
	if st.PlanHits != 1 || st.PlanMisses != 0 {
		t.Fatalf("adopted plan not hit: hits=%d misses=%d", st.PlanHits, st.PlanMisses)
	}
	if !res2.Stats.PlanReused {
		t.Fatal("solve with adopted plan not classified as plan reuse")
	}
}

// TestPatchedFingerprintKnownAnswers pins the keys a session computes for
// the three delta shapes — a target-only delta, an edit delta and an
// append delta — so a change to how a patched instance is fingerprinted
// shows up as a failed test, not as a delta that stops hitting the cache
// for its equivalent full instance.
func TestPatchedFingerprintKnownAnswers(t *testing.T) {
	base := censusInstance(30, 10, 23)
	s, err := NewEngine(4).Open(base, core.Options{Seed: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		d    Delta
		want string
	}{
		{"targets", Delta{CCTargets: map[int]int64{0: 3, 4: 0}},
			"2f05b0271f4160a3146ac917df5c9e4125cd732fb4d55518820aa1c287617257"},
		{"edits", Delta{R1Edits: []CellEdit{
			{Row: 2, Col: "Age", Val: table.Int(-5)},
			{Row: 0, Col: "Rel", Val: table.String("Ch\"ild ")},
			{Row: 2, Col: "Age", Val: table.Null()},
		}}, "9e4fe5319dd8ee4b5661907992fca822a8bad1dfa18085b8e92a9e098ebeaf18"},
		{"appends", Delta{R1Appends: [][]table.Value{
			{table.Int(900001), table.String("Member"), table.Int(33), table.Int(1), table.Null()},
			{table.Int(900002), table.String(""), table.Null(), table.Int(0), table.Null()},
		}}, "637d1662e864106f9f71643f07ab60c5d2b63888b0371f8c43ea4b668e0c1654"},
	} {
		k, err := s.PatchedFingerprint(tc.d)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := fmt.Sprintf("%x", k); got != tc.want {
			t.Errorf("%s: PatchedFingerprint = %s, want %s", tc.name, got, tc.want)
		}
	}
}
