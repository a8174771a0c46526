// Command servebench is the serving benchmark of linksynthd. It generates a
// workload's requests from a seed, then either drives the real linksynthd
// binary over loopback HTTP and reports the end-to-end metrics (-trace 0),
// or replays the same requests in process and reports per-layer self times
// (-trace 1). Every response is verified after the timed window; the last
// line of standard output is one JSON object with the outcome.
//
// Run it from the repository root through run.sh, which builds both
// binaries from source first:
//
//	bash servebench/run.sh --workload hit --seed 1 --seconds 10 --trace 0
//
// The workloads, metrics and what they leave unmeasured are described in
// BENCHMARK.json at the repository root. The benchmark reads /proc and is
// Linux-only.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	workload := flag.String("workload", "", "cold, hit, delta or restart")
	seed := flag.Int64("seed", 1, "seed every input of the run is derived from")
	seconds := flag.Int("seconds", 10, "target length of the timed window; sets the request count")
	trace := flag.Int("trace", 0, "1 replays the requests in process and reports per-layer metrics")
	bin := flag.String("linksynthd", "", "linksynthd binary to drive")
	work := flag.String("work", ".bench_build/servebench", "scratch directory inside the checkout")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) || (*trace == 0 && *bin == "") {
		fatalf("need --seconds >= 1, --trace 0 or 1, and --linksynthd for --trace 0")
	}
	p, err := buildPlan(paperFamily, *workload, *seed, *seconds)
	if err != nil {
		fatalf("%v", err)
	}
	ds, err := openDigests(filepath.Join(*work, "digests"), *workload, *seed)
	if err != nil {
		fatalf("%v", err)
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fatalf("%v", err)
	}
	dir, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		fatalf("%v", err)
	}
	defer os.RemoveAll(dir)
	v := newVerifier(ds)
	var out *outcome
	if *trace == 0 {
		e := &e2eRun{bin: *bin, dir: dir, p: p, v: v}
		if err := e.run(); err != nil {
			os.RemoveAll(dir)
			fatalf("%v", err)
		}
		out = e.outcome()
	} else {
		t := &tracedRun{dir: dir, p: p, v: v}
		if err := t.run(); err != nil {
			os.RemoveAll(dir)
			fatalf("%v", err)
		}
		out = t.outcome()
		if err := t.writeSpans(filepath.Join(*work, "traces", fmt.Sprintf("%s-seed%d.json", *workload, *seed))); err != nil {
			os.RemoveAll(dir)
			fatalf("write spans: %v", err)
		}
	}
	v.finish()
	out.failed += len(v.failures)
	for _, f := range v.failures {
		fmt.Fprintln(os.Stderr, "servebench: verification failed:", f)
	}
	out.print(*workload, *seed)
	if out.failed > 0 {
		os.RemoveAll(dir)
		os.Exit(1)
	}
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// outcome is a run's result line.
type outcome struct {
	attempted int
	failed    int
	metrics   []metric
	report    []string // human-readable lines printed before the result
}

func (o *outcome) add(name, unit string, v float64) {
	o.metrics = append(o.metrics, metric{name: name, value: v, unit: unit})
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (o *outcome) print(workload string, seed int64) {
	fmt.Printf("servebench %s seed %d: %d attempted, %d failed\n", workload, seed, o.attempted, o.failed)
	for _, l := range o.report {
		fmt.Println(l)
	}
	ms := map[string]jsonMetric{}
	for _, m := range o.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			m.value = 0
		}
		ms[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{o.failed == 0, o.attempted, o.failed, ms})
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(b))
}

// outcome assembles the end-to-end metrics of an untraced run from the kept
// attempt of each round. Latency quantiles, throughput and CPU time are
// taken per round and reported as the median over the rounds, so a round
// the host slowed does not move them; first hits, set-ups and peak RSS are
// medians over all their samples.
func (e *e2eRun) outcome() *outcome {
	var p50, p90, rps, cpu, cc, size, setupS, firstHit, rss, stolen []float64
	timed := 0
	var window time.Duration
	for _, r := range e.results {
		p50 = append(p50, quantile(r.lat, 0.5))
		p90 = append(p90, quantile(r.lat, 0.9))
		rps = append(rps, float64(len(r.lat))/r.window.Seconds())
		cpu = append(cpu, r.cpuMs/float64(len(r.lat)))
		cc = append(cc, r.cc...)
		size = append(size, r.size...)
		setupS = append(setupS, r.setupS)
		firstHit = append(firstHit, r.firstHit...)
		rss = append(rss, r.rss...)
		stolen = append(stolen, 100*r.stolen())
		timed += len(r.lat)
		window += r.window
	}
	o := &outcome{attempted: e.sent}
	o.add("setup_s", "s", median(setupS))
	o.add("p50_ms", "ms", median(p50))
	o.add("p90_ms", "ms", median(p90))
	o.add("first_hit_ms", "ms", median(firstHit))
	o.add("throughput_rps", "1/s", median(rps))
	o.add("cpu_ms_per_op", "ms", median(cpu))
	o.add("rss_peak_mb", "MiB", median(rss))
	o.add("resp_kb", "KiB", mean(size)/1024)
	o.add("cc_err_mean", "ratio", mean(cc))
	o.report = append(o.report, fmt.Sprintf("  %d timed requests over %.2fs, set-ups %v s, first hits %v ms",
		timed, window.Seconds(), list(setupS, 3), list(firstHit, 1)))
	o.report = append(o.report, fmt.Sprintf("  host CPU time stolen per round: %v %%", list(stolen, 1)))
	for _, l := range e.redone {
		o.report = append(o.report, "  redone "+l)
	}
	for _, m := range o.metrics {
		o.report = append(o.report, fmt.Sprintf("  %-16s %12.4f %s", m.name, m.value, m.unit))
	}
	return o
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func list(xs []float64, digits int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.*f", digits, x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "servebench: "+format+"\n", args...)
	os.Exit(1)
}
