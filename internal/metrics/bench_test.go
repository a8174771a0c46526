package metrics

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/census"
	"repro/internal/core"
)

// censusFamily is the serving benchmark's instance family: about 1,000
// households (3,060 persons) in 6 areas, 150 S_bad_CC constraints whose
// targets carry two-sided geometric noise (b = 3), and every Table-4 DC.
func censusFamily(seed int64) core.Input {
	d := census.Generate(census.Config{Households: 1000, Areas: 6, Seed: seed})
	ccs := d.BadCCs(150)
	rng := rand.New(rand.NewSource(seed))
	for i := range ccs {
		ccs[i].Target = perturb(rng, ccs[i].Target, 3)
	}
	return core.Input{
		R1: d.Persons, R2: d.Housing,
		K1: "pid", K2: "hid", FK: "hid",
		CCs: ccs, DCs: census.AllDCs(),
	}
}

// perturb adds two-sided geometric noise of scale b to a target, clamped
// at zero: the DP-style noise that keeps CC errors nonzero.
func perturb(rng *rand.Rand, target int64, b float64) int64 {
	p := 1 / (1 + b)
	geom := func() int64 {
		n := int64(0)
		for rng.Float64() > p {
			n++
		}
		return n
	}
	if t := target + geom() - geom(); t > 0 {
		return t
	}
	return 0
}

// solvedCase is one census instance solved under one configuration.
type solvedCase struct {
	name string
	in   core.Input
	res  *core.Result
}

var (
	solvedOnce  sync.Once
	solvedCases []solvedCase
	solvedErr   error
)

// censusSolved returns censusFamily(1) solved by the hybrid (no DC
// violations) and by both baselines (about half of R̂1 violating), solved
// once per test binary.
func censusSolved(tb testing.TB) []solvedCase {
	tb.Helper()
	solvedOnce.Do(func() {
		in := censusFamily(1)
		for _, c := range []struct {
			name string
			opt  core.Options
		}{
			{"hybrid", core.Options{Seed: 1}},
			{"baseline", core.BaselineOptions(1)},
			{"baseline-marginals", core.BaselineMarginalsOptions(1)},
		} {
			res, err := core.Solve(in, c.opt)
			if err != nil {
				solvedErr = err
				return
			}
			solvedCases = append(solvedCases, solvedCase{c.name, in, res})
		}
	})
	if solvedErr != nil {
		tb.Fatal(solvedErr)
	}
	return solvedCases
}

var sinkErrs []float64

// BenchmarkCCErrors times one §6.1 CC-error recount of a solved join view.
func BenchmarkCCErrors(b *testing.B) {
	for _, c := range censusSolved(b)[:2] {
		c := c
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkErrs = CCErrors(c.res.VJoin, c.in.CCs)
			}
		})
	}
}

var sinkFrac float64

// BenchmarkDCErrorFraction times one §6.1 DC-error recount of a solved R̂1.
func BenchmarkDCErrorFraction(b *testing.B) {
	for _, c := range censusSolved(b)[:2] {
		c := c
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkFrac = DCErrorFraction(c.res.R1Hat, c.in.FK, c.in.DCs)
			}
		})
	}
}
