package obsv

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math"
	"regexp"
	"slices"
	"strings"
)

// NodeUpFamily is the gauge family the merger synthesizes to report which
// members answered the fan-out: 1 per merged node, 0 per unreachable one.
// Free-form comments would fail the exposition validator, so reachability
// is reported as a metric like everything else.
const NodeUpFamily = "linksynthd_cluster_node_up"

var (
	metricName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelName  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
	// sampleSuffix marks the names the validator folds onto a histogram.
	sampleSuffix = regexp.MustCompile(`_(bucket|sum|count)$`)
)

// DecodeFamilies decodes a member's GET /metrics?format=json reply and
// checks that it merges into a valid exposition. It refuses a name or
// label key outside the Prometheus character set, a family name that
// ends in a histogram sample suffix or is NodeUpFamily, a newline in
// help text, a `}` in a label value (the validator reads a sample's
// labels up to the first `}`), a family sent twice, a negative counter,
// and a histogram whose bounds do not ascend, whose buckets are negative
// or not cumulative, whose count is below its last bucket, or whose sum
// is negative.
func DecodeFamilies(b []byte) ([]Family, error) {
	var fams []Family
	if err := json.Unmarshal(b, &fams); err != nil {
		return nil, err
	}
	seen := make(map[string]bool, len(fams))
	for _, f := range fams {
		if err := f.check(); err != nil {
			return nil, fmt.Errorf("family %q: %w", f.Name, err)
		}
		if seen[f.Name] {
			return nil, fmt.Errorf("family %q sent twice", f.Name)
		}
		seen[f.Name] = true
	}
	return fams, nil
}

func (f *Family) check() error {
	if !metricName.MatchString(f.Name) || sampleSuffix.MatchString(f.Name) || f.Name == NodeUpFamily {
		return errors.New("bad name")
	}
	if strings.Contains(f.Help, "\n") {
		return errors.New("newline in help text")
	}
	switch f.Type {
	case "counter", "gauge":
		if f.Bounds != nil || f.Buckets != nil || f.Count != 0 || f.Sum != 0 {
			return errors.New("histogram fields on a " + f.Type)
		}
		for _, s := range f.Samples {
			for k, v := range s.Labels {
				if !labelName.MatchString(k) || strings.Contains(v, "}") {
					return errors.New("bad label")
				}
			}
			if f.Type == "counter" && s.Value < 0 {
				return errors.New("negative counter")
			}
		}
	case "histogram":
		if f.Samples != nil || len(f.Bounds) != len(f.Buckets) {
			return errors.New("malformed histogram")
		}
		last := int64(0)
		for i, c := range f.Buckets {
			if c < last || i > 0 && !(f.Bounds[i] > f.Bounds[i-1]) {
				return errors.New("bounds do not ascend, or buckets are negative or not cumulative")
			}
			last = c
		}
		if f.Count < last || !(f.Sum >= 0) {
			return errors.New("count below the last bucket, or negative sum")
		}
	default:
		return fmt.Errorf("unknown type %q", f.Type)
	}
	return nil
}

// Merge merges each node's families into one cluster-wide exposition
// (GET /debug/cluster) in the format check_metrics.sh enforces on a
// single node's /metrics. Peer families must have passed DecodeFamilies.
//
//   - counter: one unlabeled aggregate line (sum over nodes), then one
//     `{node="..."}` line per node sample.
//   - gauge: one unlabeled aggregate line (max over nodes — gauges are
//     levels, not flows), then per-node lines; a gauge with labels of its
//     own (the build_info idiom) gets no aggregate.
//   - histogram: buckets, count and sum summed into one cumulative set,
//     since the validator's cumulative rule spans all of a family's
//     lines; per-node latency detail stays on each node's own /metrics.
//
// NodeUpFamily is appended, covering the merged nodes (1) and the nodes
// listed in down (0). A family whose type or histogram bounds differ
// between nodes (every node of one build uses DefaultBuckets) fails the
// whole merge: a half-merged cluster view is worse than an explicit
// error. Families, nodes and labels are all sorted, so two merges over
// the same families are byte-identical.
func Merge(nodes map[string][]Family, down []string) (string, error) {
	merged := map[string]*Family{}
	names := sortedKeys(nodes)
	for _, node := range names {
		for _, f := range nodes[node] {
			m := merged[f.Name]
			if m == nil {
				m = &Family{Name: f.Name, Help: f.Help, Type: f.Type, Bounds: f.Bounds, Buckets: make([]int64, len(f.Bounds))}
				merged[f.Name] = m
			}
			switch {
			case f.Type != m.Type:
				return "", fmt.Errorf("node %s: family %s is %s here but %s elsewhere", node, f.Name, f.Type, m.Type)
			case f.Type != "histogram":
				for _, s := range f.Samples {
					m.Samples = append(m.Samples, withNode(s, node))
				}
			case !slices.Equal(f.Bounds, m.Bounds):
				return "", fmt.Errorf("node %s: histogram %s has other bucket bounds", node, f.Name)
			default:
				for i, c := range f.Buckets {
					m.Buckets[i] = addSat(m.Buckets[i], c)
				}
				m.Count = addSat(m.Count, f.Count)
				m.Sum += f.Sum
			}
		}
	}

	up := &Family{Name: NodeUpFamily, Type: "gauge",
		Help: "1 for cluster members whose /metrics merged into this exposition, 0 for members that did not answer."}
	for _, n := range names {
		up.Samples = append(up.Samples, withNode(Sample{Value: 1}, n))
	}
	for _, n := range down {
		up.Samples = append(up.Samples, withNode(Sample{Value: 0}, n))
	}
	var e Exposition
	for _, m := range merged {
		if m.Type != "histogram" {
			aggregate(m)
		}
		e.fams = append(e.fams, *m)
	}
	sortSamples(up)
	e.fams = append(e.fams, *up)
	return e.Render(), nil
}

// aggregate sorts a merged counter or gauge family's per-node samples and
// puts the cluster aggregate first.
func aggregate(m *Family) {
	sortSamples(m)
	labeled, agg := false, int64(0)
	for i, s := range m.Samples {
		labeled = labeled || len(s.Labels) > 1
		switch {
		case m.Type == "counter":
			agg = addSat(agg, s.Value)
		case i == 0 || s.Value > agg:
			agg = s.Value
		}
	}
	if m.Type == "counter" || !labeled {
		m.Samples = append([]Sample{{Value: agg}}, m.Samples...)
	}
}

// withNode returns s with its node label set to node.
func withNode(s Sample, node string) Sample {
	labels := map[string]string{}
	maps.Copy(labels, s.Labels)
	labels["node"] = node
	return Sample{Labels: labels, Value: s.Value}
}

// sortSamples orders a family's samples by their rendered lines.
func sortSamples(f *Family) {
	line := func(s Sample) string {
		var b strings.Builder
		writeSample(&b, f.Name, s)
		return b.String()
	}
	slices.SortFunc(f.Samples, func(a, b Sample) int { return strings.Compare(line(a), line(b)) })
}

// addSat adds two non-negative counts, saturating at math.MaxInt64: a peer
// may claim any count, and a wrapped sum would render negative.
func addSat(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}
