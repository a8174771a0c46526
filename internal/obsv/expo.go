package obsv

import (
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Family is one metric family: a name, help text and type, plus either
// labeled integer samples (a counter or gauge) or a histogram's ascending
// bucket bounds, the cumulative count at each bound, its count (the +Inf
// bucket) and its sum. GET /metrics renders families as Prometheus text,
// and GET /metrics?format=json serves them as JSON for /debug/cluster to
// merge. Counters count below 2^63.
type Family struct {
	Name    string    `json:"name"`
	Help    string    `json:"help"`
	Type    string    `json:"type"` // counter | gauge | histogram
	Samples []Sample  `json:"samples,omitempty"`
	Bounds  []float64 `json:"bounds,omitempty"`
	Buckets []int64   `json:"buckets,omitempty"`
	Count   int64     `json:"count,omitempty"`
	Sum     float64   `json:"sum,omitempty"`
}

// Sample is one counter or gauge sample.
type Sample struct {
	Labels map[string]string `json:"labels,omitempty"`
	Value  int64             `json:"value"`
}

// Exposition accumulates metric families and renders them in Prometheus
// text exposition format with deterministic ordering: families sorted by
// name, every family preceded by its HELP and TYPE lines. Two scrapes
// that observe the same values produce byte-identical output, so diffs,
// the cluster smoke tests, and promtool-style validators can compare
// scrapes directly.
//
// It is a per-scrape value, not a registry: handlers rebuild one on every
// scrape from live counters, which keeps the exposition layer free of
// registration state and lock ordering concerns.
type Exposition struct {
	fams []Family
}

// Counter adds a counter family with a single unlabeled sample.
func (e *Exposition) Counter(name, help string, v uint64) {
	e.fams = append(e.fams, Family{Name: name, Help: help, Type: "counter", Samples: []Sample{{Value: int64(v)}}})
}

// Gauge adds a gauge family with a single unlabeled sample.
func (e *Exposition) Gauge(name, help string, v int64) {
	e.fams = append(e.fams, Family{Name: name, Help: help, Type: "gauge", Samples: []Sample{{Value: v}}})
}

// Info adds an info-style gauge: constant value 1 with the given label
// pairs (the build_info idiom). Labels are emitted sorted by key.
func (e *Exposition) Info(name, help string, labels map[string]string) {
	e.fams = append(e.fams, Family{Name: name, Help: help, Type: "gauge",
		Samples: []Sample{{Labels: maps.Clone(labels), Value: 1}}})
}

// Histogram adds a histogram family from its live counters.
func (e *Exposition) Histogram(h *Histogram) {
	if h != nil {
		e.fams = append(e.fams, h.family())
	}
}

// Families returns the families sorted by name.
func (e *Exposition) Families() []Family {
	slices.SortStableFunc(e.fams, func(a, b Family) int { return strings.Compare(a.Name, b.Name) })
	return e.fams
}

// Render emits the full exposition: families sorted by name, each as
//
//	# HELP <name> <help>
//	# TYPE <name> <type>
//	<samples...>
//
// where a histogram's samples are its buckets, _sum and _count.
func (e *Exposition) Render() string {
	var b strings.Builder
	for _, f := range e.Families() {
		write(&b, "# HELP ", f.Name, " ", f.Help, "\n# TYPE ", f.Name, " ", f.Type, "\n")
		if f.Type != "histogram" {
			for _, s := range f.Samples {
				writeSample(&b, f.Name, s)
			}
			continue
		}
		for i, ub := range f.Bounds {
			le := strconv.FormatFloat(ub, 'f', -1, 64) // shortest decimal, no exponent
			write(&b, f.Name, `_bucket{le="`, le, `"} `, strconv.FormatInt(f.Buckets[i], 10), "\n")
		}
		count := strconv.FormatInt(f.Count, 10)
		write(&b, f.Name, `_bucket{le="+Inf"} `, count, "\n", f.Name, "_sum ", strconv.FormatFloat(f.Sum, 'g', -1, 64), "\n")
		write(&b, f.Name, "_count ", count, "\n")
	}
	return b.String()
}

// writeSample writes one sample line of family name: `name value`, or
// `name{k="v",...} value` with the labels sorted by key.
func writeSample(b *strings.Builder, name string, s Sample) {
	b.WriteString(name)
	sep := "{"
	for _, k := range sortedKeys(s.Labels) {
		write(b, sep, k, `="`, labelEscaper.Replace(s.Labels[k]), `"`)
		sep = ","
	}
	if sep == "," {
		b.WriteByte('}')
	}
	write(b, " ", strconv.FormatInt(s.Value, 10), "\n")
}

// write appends each of ss to b, sparing the concatenations a scrape
// would otherwise allocate.
func write(b *strings.Builder, ss ...string) {
	for _, s := range ss {
		b.WriteString(s)
	}
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// labelEscaper escapes a label value per the exposition format.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
