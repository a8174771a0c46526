// Command benchtab regenerates the paper's evaluation tables and figures
// (§6, Figures 8–13 plus Table 1, the CC-count sweep, and our ablations) on
// the synthetic census substrate and prints them as text tables.
//
// Usage:
//
//	benchtab                  # run everything at the default quick scale
//	benchtab -exp fig8a,fig13 # selected experiments
//	benchtab -unit 982 -ccs 200 -scales 1,2,5,10   # closer to paper scale
//	benchtab -batch 8 -workers -1                  # batched multi-instance workload
//	benchtab -batch 8 -json                        # machine-readable Stats breakdown
//	benchtab -batch 8 -cpuprofile cpu.pprof -memprofile mem.pprof  # profile the run
//
// With -json, output is a single JSON document: per-experiment tables, or —
// under -batch — the per-instance per-stage Stats breakdown and wall times
// that feed the BENCH_cluster.json artifact. The serving benchmarks
// (incremental re-solves, store restarts, tracing overhead) are testing.B
// benchmarks in the root package's serve_bench_test.go.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	linksynth "repro"
	"repro/internal/census"
	"repro/internal/experiments"
	"repro/internal/metrics"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiment ids (see -list)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	unit := flag.Int("unit", 0, "households at scale 1x (default quick-scale)")
	areas := flag.Int("areas", 0, "distinct areas")
	ccs := flag.Int("ccs", 0, "CC set size (paper: 1001)")
	scales := flag.String("scales", "", "comma-separated scale multipliers (e.g. 1,2,5,10)")
	largeScales := flag.String("large-scales", "", "scales for fig11b")
	seed := flag.Int64("seed", 1, "seed")
	batch := flag.Int("batch", 0, "solve this many instances via SolveBatch instead of running experiments")
	workers := flag.Int("workers", -1, "worker pool size for -batch (-1 = GOMAXPROCS, 0/1 = serial)")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON instead of text tables")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal("-cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal("-cpuprofile: %v", err)
		}
		stopCPUProfile = func() {
			stopCPUProfile = nil
			pprof.StopCPUProfile()
			f.Close()
		}
		defer flushProfiles()
	}
	if *memProfile != "" {
		writeMemProfile = func() {
			writeMemProfile = nil
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchtab: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize up-to-date heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "benchtab: -memprofile: %v\n", err)
			}
		}
		defer flushProfiles()
	}

	if *list {
		for _, r := range experiments.Runners() {
			fmt.Println(r.ID)
		}
		return
	}
	if *batch > 0 {
		runBatch(*batch, *workers, *unit, *ccs, *seed, *asJSON)
		return
	}

	cfg := experiments.DefaultConfig()
	cfg.Seed = *seed
	if *unit > 0 {
		cfg.Unit = *unit
	}
	if *areas > 0 {
		cfg.Areas = *areas
	}
	if *ccs > 0 {
		cfg.NCC = *ccs
	}
	if *scales != "" {
		cfg.Scales = parseInts("-scales", *scales)
	}
	if *largeScales != "" {
		cfg.LargeScales = parseInts("-large-scales", *largeScales)
	}

	want := map[string]bool{}
	if *exp != "all" {
		for _, id := range strings.Split(*exp, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}
	type expJSON struct {
		ID      string     `json:"id"`
		Title   string     `json:"title"`
		Header  []string   `json:"header"`
		Rows    [][]string `json:"rows"`
		Notes   []string   `json:"notes,omitempty"`
		Seconds float64    `json:"seconds"`
	}
	var jsonOut []expJSON
	for _, r := range experiments.Runners() {
		if len(want) > 0 && !want[r.ID] {
			continue
		}
		start := time.Now()
		tab, err := r.Run(cfg)
		if err != nil {
			fatal("experiment %s: %v", r.ID, err)
		}
		elapsed := time.Since(start)
		if *asJSON {
			jsonOut = append(jsonOut, expJSON{ID: tab.ID, Title: tab.Title,
				Header: tab.Header, Rows: tab.Rows, Notes: tab.Notes,
				Seconds: elapsed.Seconds()})
			continue
		}
		fmt.Print(tab.String())
		fmt.Printf("(%s took %v)\n\n", r.ID, elapsed.Round(time.Millisecond))
	}
	if *asJSON {
		emitJSON(map[string]any{"experiments": jsonOut})
	}
}

// runBatch is the multi-instance workload: n census instances (one seed
// each) solved by a single SolveBatch call over a shared worker pool, with
// per-instance quality and a throughput summary. Under -json the per-stage
// Stats breakdown is emitted for the perf trajectory.
func runBatch(n, workers, unit, nCC int, seed int64, asJSON bool) {
	if unit <= 0 {
		unit = 200
	}
	if nCC <= 0 {
		nCC = 40
	}
	inputs := make([]linksynth.Input, n)
	allCCs := make([][]linksynth.CC, n)
	dcs := census.AllDCs()
	for i := range inputs {
		d := census.Generate(census.Config{Households: unit, Areas: 6, Seed: seed + int64(i)})
		allCCs[i] = d.GoodCCs(nCC)
		inputs[i] = linksynth.Input{R1: d.Persons, R2: d.Housing,
			K1: "pid", K2: "hid", FK: "hid", CCs: allCCs[i], DCs: dcs}
	}
	start := time.Now()
	results, err := linksynth.SolveBatch(inputs, linksynth.Options{Seed: seed, Workers: workers})
	elapsed := time.Since(start)
	if err != nil {
		fatal("batch of %d instances: %v", n, err)
	}

	if asJSON {
		type instJSON struct {
			Instance     int             `json:"instance"`
			CCErrMedian  float64         `json:"cc_err_median"`
			CCErrMean    float64         `json:"cc_err_mean"`
			DCErr        float64         `json:"dc_err"`
			AddedR2      int             `json:"added_r2"`
			SolveSeconds float64         `json:"solve_seconds"`
			Stats        linksynth.Stats `json:"stats"`
		}
		out := struct {
			Instances    int        `json:"instances"`
			Households   int        `json:"households"`
			CCs          int        `json:"ccs"`
			Workers      int        `json:"workers"`
			Seed         int64      `json:"seed"`
			TotalSeconds float64    `json:"total_seconds"`
			PerSecond    float64    `json:"instances_per_second"`
			Results      []instJSON `json:"results"`
		}{
			Instances: n, Households: unit, CCs: nCC, Workers: workers, Seed: seed,
			TotalSeconds: elapsed.Seconds(),
			PerSecond:    float64(n) / elapsed.Seconds(),
		}
		for i, res := range results {
			errs := linksynth.CCErrors(res.VJoin, allCCs[i])
			out.Results = append(out.Results, instJSON{
				Instance:    i,
				CCErrMedian: metrics.Median(errs),
				CCErrMean:   metrics.Mean(errs),
				DCErr:       linksynth.DCErrorFraction(res.R1Hat, "hid", dcs),
				AddedR2:     res.Stats.AddedR2Tuples,
				// Stats.Total is solver time for this instance; wall time for
				// the whole batch is TotalSeconds.
				SolveSeconds: res.Stats.Total.Seconds(),
				Stats:        res.Stats,
			})
		}
		emitJSON(out)
		return
	}

	fmt.Printf("batch: %d instances x %d households, %d CCs, workers=%d\n",
		n, unit, nCC, workers)
	fmt.Printf("%-10s %-12s %-10s %-10s %s\n", "instance", "CCerr-median", "DCerr", "addedR2", "solve-time")
	for i, res := range results {
		errs := linksynth.CCErrors(res.VJoin, allCCs[i])
		fmt.Printf("%-10d %-12.4f %-10.4f %-10d %v\n",
			i, metrics.Median(errs),
			linksynth.DCErrorFraction(res.R1Hat, "hid", dcs),
			res.Stats.AddedR2Tuples, res.Stats.Total.Round(time.Millisecond))
	}
	fmt.Printf("total %v, %.2f instances/s\n", elapsed.Round(time.Millisecond),
		float64(n)/elapsed.Seconds())
}

func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fatal("encode JSON: %v", err)
	}
}

func parseInts(flagName, s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			fatal("%s: bad scale %q (want a comma-separated list of positive integers, e.g. 1,2,5)", flagName, part)
		}
		out = append(out, n)
	}
	return out
}

// Profile teardown hooks; flushed both on normal return and from fatal, so
// a failing run — the one most worth diagnosing — still yields usable
// profiles. Each hook nils itself to stay idempotent.
var (
	stopCPUProfile  func()
	writeMemProfile func()
)

func flushProfiles() {
	// Heap snapshot first: stopping the CPU profile is cheap and the heap
	// state is most useful before teardown frees anything.
	if writeMemProfile != nil {
		writeMemProfile()
	}
	if stopCPUProfile != nil {
		stopCPUProfile()
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchtab: "+format+"\n", args...)
	flushProfiles()
	os.Exit(1)
}
