package obsv

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// node builds one member's families through the exposition API: two
// counters, a gauge, build_info and two histograms fed the given
// latencies.
func node(req, runs uint64, sessions int64, solve, hit []time.Duration) []Family {
	var e Exposition
	e.Counter("linksynthd_requests_total", "HTTP requests received", req)
	e.Counter("linksynthd_solver_runs_total", "instances actually solved (cache misses)", runs)
	e.Gauge("linksynthd_incr_sessions", "warm solver sessions retained", sessions)
	e.Info("linksynthd_build_info", "build metadata of the running binary; value is constant 1", map[string]string{
		"goversion": "go1.24.0", "modified": "false", "revision": "0123abcd", "version": "(devel)",
	})
	hs := NewHistogram("linksynthd_solve_duration_seconds", "local solver run latency (cache-miss path)")
	for _, d := range solve {
		hs.Observe(d)
	}
	hh := NewHistogram("linksynthd_cache_hit_duration_seconds", "latency of requests answered from the byte cache")
	for _, d := range hit {
		hh.Observe(d)
	}
	e.Histogram(hs)
	e.Histogram(hh)
	return e.Families()
}

// goldenNodes is the two-member set whose merge testdata/cluster_merge.golden
// pins; a third member is down.
func goldenNodes() map[string][]Family {
	ms, us := time.Millisecond, time.Microsecond
	return map[string][]Family{
		"http://10.0.0.1:8080": node(10, 4, 3,
			[]time.Duration{2 * ms, 2 * ms, 2 * ms, 2 * ms, 2 * ms, 40 * ms},
			[]time.Duration{150 * us, 150 * us, 150 * us, 80 * us}),
		"http://10.0.0.2:8080": node(32, 0, 7,
			[]time.Duration{3 * time.Second, 3 * time.Second, 3 * time.Second, 700 * ms, 2 * time.Minute},
			[]time.Duration{300 * us, 300 * us, 12 * ms}),
	}
}

// TestMergeGoldenTwoNodes pins the merged text byte for byte. The golden
// file was rendered by the text-parsing merge this one replaced, from the
// same two scrapes.
func TestMergeGoldenTwoNodes(t *testing.T) {
	want, err := os.ReadFile("testdata/cluster_merge.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := mustMerge(t, goldenNodes(), []string{"http://10.0.0.3:8080"})
	if got != string(want) {
		t.Fatalf("merged exposition differs from the golden file:\n%s", got)
	}
	if err := checkExposition(got); err != nil {
		t.Fatal(err)
	}
}

func counterGauge(requests uint64, sessions int64) []Family {
	var e Exposition
	e.Counter("linksynthd_requests_total", "requests served", requests)
	e.Gauge("linksynthd_sessions", "live sessions", sessions)
	return e.Families()
}

func mustMerge(t *testing.T, nodes map[string][]Family, down []string) string {
	t.Helper()
	out, err := Merge(nodes, down)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	return out
}

func wantLine(t *testing.T, out, line string) {
	t.Helper()
	for _, l := range strings.Split(out, "\n") {
		if l == line {
			return
		}
	}
	t.Fatalf("merged exposition missing line %q:\n%s", line, out)
}

func TestMergeCountersSumAndKeepPerNodeLines(t *testing.T) {
	out := mustMerge(t, map[string][]Family{
		"http://n1": counterGauge(10, 3),
		"http://n2": counterGauge(32, 7),
	}, nil)
	wantLine(t, out, "linksynthd_requests_total 42")
	wantLine(t, out, `linksynthd_requests_total{node="http://n1"} 10`)
	wantLine(t, out, `linksynthd_requests_total{node="http://n2"} 32`)
}

func TestMergeGaugesTakeMax(t *testing.T) {
	out := mustMerge(t, map[string][]Family{
		"http://n1": counterGauge(10, 3),
		"http://n2": counterGauge(32, 7),
	}, nil)
	// Gauges are levels, not flows: the aggregate is the max, never the sum.
	wantLine(t, out, "linksynthd_sessions 7")
	wantLine(t, out, `linksynthd_sessions{node="http://n1"} 3`)
	wantLine(t, out, `linksynthd_sessions{node="http://n2"} 7`)
}

// TestMergeAggregatesPrintExactIntegers: sums of a million or more print
// as integers, not in exponent form.
func TestMergeAggregatesPrintExactIntegers(t *testing.T) {
	out := mustMerge(t, map[string][]Family{
		"http://n1": counterGauge(1_000_000, 1),
		"http://n2": counterGauge(234_567, 2),
	}, nil)
	wantLine(t, out, "linksynthd_requests_total 1234567")
}

func TestMergeNodeUpCoversMergedAndDownMembers(t *testing.T) {
	out := mustMerge(t, map[string][]Family{"http://n1": counterGauge(10, 3)}, []string{"http://n9"})
	wantLine(t, out, NodeUpFamily+`{node="http://n1"} 1`)
	wantLine(t, out, NodeUpFamily+`{node="http://n9"} 0`)
}

func TestMergeLabeledGaugeGetsNoAggregate(t *testing.T) {
	var e Exposition
	e.Info("linksynthd_build_info", "build metadata", map[string]string{"revision": "abc", "version": "v1"})
	info := e.Families()
	out := mustMerge(t, map[string][]Family{"n1": info, "n2": info}, nil)
	wantLine(t, out, `linksynthd_build_info{node="n1",revision="abc",version="v1"} 1`)
	wantLine(t, out, `linksynthd_build_info{node="n2",revision="abc",version="v1"} 1`)
	for _, l := range strings.Split(out, "\n") {
		if l == "linksynthd_build_info 2" || strings.HasPrefix(l, "linksynthd_build_info 1") {
			t.Fatalf("labeled info gauge got an aggregate line: %q", l)
		}
	}
}

// TestMergeHistogramsSumBuckets merges two real histograms and checks the
// merged family has one summed cumulative bucket set — the validator's
// cumulative rule spans all of a family's lines, so per-node bucket lines
// would be malformed by construction.
func TestMergeHistogramsSumBuckets(t *testing.T) {
	fams := func(h *Histogram) []Family {
		var e Exposition
		e.Histogram(h)
		return e.Families()
	}
	h1 := NewHistogram("solve_duration_seconds", "solve latency")
	h2 := NewHistogram("solve_duration_seconds", "solve latency")
	for i := 0; i < 5; i++ {
		h1.Observe(2 * time.Millisecond)
	}
	for i := 0; i < 3; i++ {
		h2.Observe(3 * time.Second)
	}
	out := mustMerge(t, map[string][]Family{"n1": fams(h1), "n2": fams(h2)}, nil)
	wantLine(t, out, `solve_duration_seconds_bucket{le="0.0025"} 5`)
	wantLine(t, out, `solve_duration_seconds_bucket{le="+Inf"} 8`)
	wantLine(t, out, "solve_duration_seconds_count 8")
	if strings.Contains(out, `_bucket{le="0.0025",node=`) || strings.Contains(out, `node="n1",le=`) {
		t.Fatalf("merged histogram leaked per-node bucket lines:\n%s", out)
	}
}

// TestMergeIsDeterministicAcrossScrapeOrder: the order of the families in
// a member's reply does not change the merge.
func TestMergeIsDeterministicAcrossScrapeOrder(t *testing.T) {
	nodes := goldenNodes()
	fwd := mustMerge(t, nodes, []string{"http://n9"})
	for n, fams := range nodes {
		rev := make([]Family, len(fams))
		for i, f := range fams {
			rev[len(fams)-1-i] = f
		}
		nodes[n] = rev
	}
	if rev := mustMerge(t, nodes, []string{"http://n9"}); fwd != rev {
		t.Fatalf("merge depends on family order:\n--- fwd\n%s\n--- rev\n%s", fwd, rev)
	}
}

func TestMergeRejectsBadScrapes(t *testing.T) {
	reply, err := json.Marshal(append(counterGauge(1, 1), counterGauge(2, 2)...))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeFamilies(reply); err == nil {
		t.Error("duplicate family: decode accepted a family sent twice")
	}
	conflict := counterGauge(32, 7)
	conflict[0].Type = "gauge"
	if _, err := Merge(map[string][]Family{"n1": counterGauge(10, 3), "n2": conflict}, nil); err == nil {
		t.Error("type conflict: merge accepted counter-vs-gauge family")
	}
	other := goldenNodes()["http://10.0.0.2:8080"]
	for i := range other {
		if other[i].Type == "histogram" {
			other[i].Bounds = []float64{1, 2}
			other[i].Buckets = []int64{0, 0}
		}
	}
	if _, err := Merge(map[string][]Family{"n1": goldenNodes()["http://10.0.0.1:8080"], "n2": other}, nil); err == nil {
		t.Error("bounds conflict: merge accepted histograms with other bucket bounds")
	}
}

// TestDecodeFamiliesRoundTrip: a node's families survive the JSON wire
// and render the same text.
func TestDecodeFamiliesRoundTrip(t *testing.T) {
	for n, fams := range goldenNodes() {
		b, err := json.Marshal(fams)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeFamilies(b)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if a, b := (&Exposition{fams: fams}).Render(), (&Exposition{fams: got}).Render(); a != b {
			t.Fatalf("%s: round trip changed the text:\n%s\n---\n%s", n, a, b)
		}
	}
}

func TestDecodeFamiliesRefuses(t *testing.T) {
	cases := map[string]string{
		"text exposition":   "# HELP x x\n# TYPE x counter\nx 1\n",
		"bad name":          `[{"name":"a b","type":"counter","samples":[{"value":1}]}]`,
		"digit first":       `[{"name":"1a","type":"counter","samples":[{"value":1}]}]`,
		"bad label key":     `[{"name":"a","type":"gauge","samples":[{"labels":{"a-b":"x"},"value":1}]}]`,
		"brace in value":    `[{"name":"a","type":"gauge","samples":[{"labels":{"k":"}"},"value":1}]}]`,
		"newline in help":   `[{"name":"a","help":"x\ny","type":"counter","samples":[{"value":1}]}]`,
		"node_up":           `[{"name":"linksynthd_cluster_node_up","type":"gauge","samples":[{"value":1}]}]`,
		"sample suffix":     `[{"name":"a_count","type":"counter","samples":[{"value":1}]}]`,
		"negative counter":  `[{"name":"a","type":"counter","samples":[{"value":-1}]}]`,
		"unknown type":      `[{"name":"a","type":"summary"}]`,
		"counter buckets":   `[{"name":"a","type":"counter","bounds":[1],"buckets":[1]}]`,
		"histogram samples": `[{"name":"a","type":"histogram","samples":[{"value":1}]}]`,
		"bounds vs buckets": `[{"name":"a","type":"histogram","bounds":[1,2],"buckets":[1]}]`,
		"bounds descend":    `[{"name":"a","type":"histogram","bounds":[2,1],"buckets":[1,1],"count":1}]`,
		"negative bucket":   `[{"name":"a","type":"histogram","bounds":[1],"buckets":[-1]}]`,
		"not cumulative":    `[{"name":"a","type":"histogram","bounds":[1,2],"buckets":[2,1],"count":2}]`,
		"count below":       `[{"name":"a","type":"histogram","bounds":[1],"buckets":[3],"count":2}]`,
		"negative sum":      `[{"name":"a","type":"histogram","bounds":[1],"buckets":[1],"count":1,"sum":-1}]`,
	}
	for name, reply := range cases {
		if fams, err := DecodeFamilies([]byte(reply)); err == nil {
			t.Errorf("%s: decode accepted %+v", name, fams)
		}
	}
}

func TestQuantileInterpolatesWithinBuckets(t *testing.T) {
	h := NewHistogram("q", "quantile test")
	if got := h.Quantile(0.99); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", got)
	}
	// 100 observations at ~2ms land in the (0.001, 0.0025] bucket; the
	// p50 estimate must fall inside that bucket's bounds.
	for i := 0; i < 100; i++ {
		h.Observe(2 * time.Millisecond)
	}
	if q := h.Quantile(0.5); q <= 0.001 || q > 0.0025 {
		t.Fatalf("p50 = %v, want within (0.001, 0.0025]", q)
	}
	// Half slow observations drag p99 into the slow bucket while p25
	// stays in the fast one.
	for i := 0; i < 100; i++ {
		h.Observe(800 * time.Millisecond)
	}
	if q := h.Quantile(0.25); q > 0.0025 {
		t.Fatalf("p25 = %v, want fast bucket", q)
	}
	if q := h.Quantile(0.99); q <= 0.5 || q > 1.0 {
		t.Fatalf("p99 = %v, want within (0.5, 1.0]", q)
	}
}

// FuzzClusterMerge feeds any bytes to DecodeFamilies as a peer's reply.
// A reply is either refused, by the decoder or by the merge, or merges
// with the local families into text that obeys check_metrics.sh's rules.
func FuzzClusterMerge(f *testing.F) {
	local := goldenNodes()["http://10.0.0.1:8080"]
	for _, fams := range [][]Family{goldenNodes()["http://10.0.0.2:8080"], counterGauge(7, -2), nil} {
		b, err := json.Marshal(fams)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`[{"name":"a","help":"h","type":"histogram","bounds":[-1,0.5],"buckets":[9223372036854775807,9223372036854775807],"count":9223372036854775807,"sum":1e308}]`))
	f.Add([]byte(`[{"name":"linksynthd_requests_total","type":"counter","samples":[{"labels":{"node":"x","le":"+Inf"},"value":9223372036854775807}]}]`))
	f.Add([]byte(`[{"name":"linksynthd_incr_sessions","type":"gauge","samples":[{"labels":{"k":"\"\\\n"},"value":-5},{"value":9}]}]`))
	f.Add([]byte("# HELP x x\n# TYPE x counter\nx 1\n"))
	f.Fuzz(func(t *testing.T, reply []byte) {
		peer, err := DecodeFamilies(reply)
		if err != nil {
			return
		}
		out, err := Merge(map[string][]Family{"http://10.0.0.1:8080": local, "http://10.0.0.2:8080": peer}, []string{"http://10.0.0.3:8080"})
		if err != nil {
			return
		}
		if err := checkExposition(out); err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
	})
}

var sampleRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$`)

// checkExposition applies .github/check_metrics.sh's rules: samples parse
// and belong to a family declared once, with HELP then TYPE, in strictly
// sorted order; counters and histograms are never negative; buckets are
// cumulative and +Inf equals _count; every family has a sample.
func checkExposition(text string) error {
	typ := map[string]string{}
	samples := map[string]int{}
	lastBucket, inf := map[string]float64{}, map[string]float64{}
	lastHelp := ""
	for i, line := range strings.Split(text, "\n") {
		fail := func(msg string) error { return fmt.Errorf("line %d: %s: %q", i+1, msg, line) }
		fields := strings.Fields(line)
		switch {
		case line == "":
		case strings.HasPrefix(line, "# HELP "):
			if lastHelp != "" && !(lastHelp < fields[2]) {
				return fail("family out of order or declared twice")
			}
			lastHelp = fields[2]
		case strings.HasPrefix(line, "# TYPE "):
			if fields[2] != lastHelp || typ[fields[2]] != "" {
				return fail("TYPE without HELP, or twice")
			}
			if t := fields[3]; t != "counter" && t != "gauge" && t != "histogram" {
				return fail("bad type")
			}
			typ[fields[2]] = fields[3]
		case strings.HasPrefix(line, "#"):
			return fail("unexpected comment")
		default:
			if !sampleRE.MatchString(line) {
				return fail("unparseable sample")
			}
			name, _, _ := strings.Cut(fields[0], "{")
			fam := name
			if base, ok := strings.CutSuffix(name, "_bucket"); ok {
				fam = base
			} else if base, ok := strings.CutSuffix(name, "_sum"); ok && typ[base] == "histogram" {
				fam = base
			} else if base, ok := strings.CutSuffix(name, "_count"); ok && typ[base] == "histogram" {
				fam = base
			}
			if typ[fam] == "" {
				return fail("sample for undeclared family")
			}
			v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
			if err != nil || math.IsNaN(v) {
				return fail("bad value")
			}
			if typ[fam] != "gauge" && v < 0 {
				return fail("negative value")
			}
			if name == fam+"_bucket" {
				if v < lastBucket[fam] {
					return fail("buckets not cumulative")
				}
				lastBucket[fam] = v
				if strings.Contains(line, `le="+Inf"`) {
					inf[fam] = v
				}
			}
			if typ[fam] == "histogram" && name == fam+"_count" {
				if c, ok := inf[fam]; !ok || c != v {
					return fail("+Inf bucket != _count")
				}
			}
			samples[fam]++
		}
	}
	for fam := range typ {
		if samples[fam] == 0 {
			return fmt.Errorf("family %s has no samples", fam)
		}
	}
	return nil
}
