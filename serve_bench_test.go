package linksynth

// Serving benchmarks on one repeated-structure census workload. CI runs
// BenchmarkIncr and BenchmarkStore with -benchmem -count 11 -benchtime 1x
// and gates on ratios of medians over the 11 one-op samples
// (.github/bench_gate.sh): delta_edit and delta_append at least 3x faster
// than cold, warm_restart at least 2x faster than cold_start.

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/census"
	"repro/internal/core"
	"repro/internal/incr"
	"repro/internal/obsv"
	"repro/internal/store"
)

// serveInstance is the serving workload: 1,000 census households in 6
// areas, 150 good CCs, every DC, seed 1.
func serveInstance() (Input, Options) {
	d := census.Generate(census.Config{Households: 1000, Areas: 6, Seed: 1})
	return Input{R1: d.Persons, R2: d.Housing, K1: "pid", K2: "hid", FK: "hid",
		CCs: d.GoodCCs(150), DCs: census.AllDCs()}, Options{Seed: 1}
}

func check(b *testing.B, err error) {
	if err != nil {
		b.Helper()
		b.Fatal(err)
	}
}

// benchShape runs op once per iteration as the sub-benchmark name. Its
// counter keeps rising across iterations and -count runs, so each op can
// derive from it a delta the session has not solved before.
func benchShape(b *testing.B, name string, op func(b *testing.B, i int)) {
	i := 0
	b.Run(name, func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			op(b, i)
			i++
		}
	})
}

// openServeSession opens a session over the serving workload, keyed as the
// daemon keys it, and solves its base, which also caches its plan in eng.
func openServeSession(b *testing.B, eng *incr.Engine) (Input, Options, [32]byte, *incr.Session) {
	in, opt := serveInstance()
	fp, err := Fingerprint(in, opt)
	check(b, err)
	sess, err := eng.OpenKeyed(in, opt, nil, fp)
	check(b, err)
	_, err = sess.Solve()
	check(b, err)
	return in, opt, fp, sess
}

// BenchmarkIncr solves the workload cold, through a new session on the
// cached plan (warm_plan), through the primed session unchanged
// (warm_session), and through deltas on it. delta_edit moves two ages
// within 42-62, which keeps each row in its CC selection intervals, so
// only the partitions holding them recolor; delta_append adds a person,
// who sorts after every existing row; delta_target nudges one CC target,
// which shifts the Phase I fill everywhere.
func BenchmarkIncr(b *testing.B) {
	eng := incr.NewEngine(64)
	in, opt, fp, sess := openServeSession(b, eng)
	var band []int
	for i := 0; i < in.R1.Len(); i++ {
		if a := in.R1.Value(i, "Age").Int(); a >= 42 && a <= 62 {
			band = append(band, i)
		}
	}

	benchShape(b, "cold", func(b *testing.B, _ int) {
		_, err := Solve(in, opt)
		check(b, err)
	})
	benchShape(b, "warm_plan", func(b *testing.B, _ int) {
		s, err := eng.OpenKeyed(in, opt, nil, fp)
		check(b, err)
		_, err = s.Solve()
		check(b, err)
	})
	benchShape(b, "warm_session", func(b *testing.B, _ int) {
		_, err := sess.Solve()
		check(b, err)
	})
	benchShape(b, "delta_edit", func(b *testing.B, i int) {
		r1, r2 := band[(i*7)%len(band)], band[(i*13+3)%len(band)]
		_, _, err := sess.Resolve(Delta{R1Edits: []CellEdit{
			{Row: r1, Col: "Age", Val: Int(in.R1.Value(r1, "Age").Int() + int64(1+i%2))},
			{Row: r2, Col: "Age", Val: Int(in.R1.Value(r2, "Age").Int() - int64(1+i%2))},
		}})
		check(b, err)
	})
	benchShape(b, "delta_append", func(b *testing.B, i int) {
		_, _, err := sess.Resolve(Delta{R1Appends: [][]Value{
			{Int(int64(900000 + i)), String("Member"), Int(int64(45 + i%15)), Int(int64(i % 2)), Null()},
		}})
		check(b, err)
	})
	benchShape(b, "delta_target", func(b *testing.B, i int) {
		cc := i % len(in.CCs)
		_, _, err := sess.Resolve(Delta{CCTargets: map[int]int64{cc: in.CCs[cc].Target + int64(1+i%3)}})
		check(b, err)
	})
}

// BenchmarkStore measures what the first solve after a restart costs.
// cold_start solves with no durable state; persist writes both relation
// snapshots and the session record, as the daemon's persister does, into
// a fresh directory so deduplication never hides a write; mapped_load
// materializes both snapshots; warm_restart is the daemon's whole
// recovery of a session (load the record and snapshots, verify the
// fingerprint, adopt the plan, open the session) in a new store and
// engine; restored_first_solve is such a session's first solve.
func BenchmarkStore(b *testing.B) {
	in, opt, fp, sess := openServeSession(b, incr.NewEngine(64))
	dir := b.TempDir()
	persist := func(b *testing.B, sub string) {
		st, err := store.Open(filepath.Join(dir, sub))
		check(b, err)
		r1fp, err := st.PutRelation(in.R1)
		check(b, err)
		r2fp, err := st.PutRelation(in.R2)
		check(b, err)
		check(b, st.PutSession(&store.SessionRecord{
			BaseFP: fp, SFP: sess.StructuralFingerprint(), R1FP: r1fp, R2FP: r2fp,
			K1: in.K1, K2: in.K2, FK: in.FK, Opt: opt,
			CCs: in.CCs, DCs: in.DCs, Plan: sess.Plan(),
		}))
	}
	open := func(b *testing.B) *store.Store {
		st, err := store.Open(filepath.Join(dir, "base"))
		check(b, err)
		return st
	}
	relations := func(b *testing.B, st *store.Store, rec *store.SessionRecord) (*Relation, *Relation) {
		r1, err := st.LoadRelation(rec.R1FP)
		check(b, err)
		r2, err := st.LoadRelation(rec.R2FP)
		check(b, err)
		return r1, r2
	}
	restore := func(b *testing.B) *incr.Session {
		st := open(b)
		rec, err := st.LoadSession(fp)
		check(b, err)
		r1, r2 := relations(b, st, rec)
		rin := Input{R1: r1, R2: r2, K1: rec.K1, K2: rec.K2, FK: rec.FK, CCs: rec.CCs, DCs: rec.DCs}
		if got, err := Fingerprint(rin, rec.Opt); err != nil || got != fp {
			b.Fatalf("restored fingerprint %x, want %x (err %v)", got, fp, err)
		}
		eng := incr.NewEngine(64)
		eng.AdoptPlan(rec.Plan)
		s, err := eng.OpenKeyed(rin, rec.Opt, nil, fp)
		check(b, err)
		return s
	}
	persist(b, "base")
	rec, err := open(b).LoadSession(fp)
	check(b, err)

	benchShape(b, "cold_start", func(b *testing.B, _ int) {
		_, err := Solve(in, opt)
		check(b, err)
	})
	benchShape(b, "persist", func(b *testing.B, i int) { persist(b, fmt.Sprint("p", i)) })
	benchShape(b, "mapped_load", func(b *testing.B, _ int) { relations(b, open(b), rec) })
	benchShape(b, "warm_restart", func(b *testing.B, _ int) { restore(b) })
	benchShape(b, "restored_first_solve", func(b *testing.B, _ int) {
		b.StopTimer()
		s := restore(b)
		b.StartTimer()
		_, err := s.Solve()
		check(b, err)
	})
}

// BenchmarkSolveTrace measures what tracing adds to a solve: the serving
// workload through core.SolveOnContext, sequentially, with no trace (off)
// or with one opened and finished around it (on), as the daemon traces
// every request.
func BenchmarkSolveTrace(b *testing.B) {
	in, opt := serveInstance()
	for _, name := range []string{"off", "on"} {
		traced := name == "on"
		benchShape(b, name, func(b *testing.B, _ int) {
			ctx := context.Background()
			var tr *obsv.Trace
			if traced {
				tr = obsv.NewTrace(obsv.NewID(), "solve", "bench")
				ctx = obsv.WithTrace(ctx, tr)
			}
			_, err := core.SolveOnContext(ctx, in, opt, nil)
			check(b, err)
			tr.Finish()
		})
	}
}
