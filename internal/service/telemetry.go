package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/url"
	"sort"
	"time"

	"repro/internal/obsv"
)

// This file is the cluster-wide telemetry plane: two fan-out endpoints
// that let an operator see the whole cluster from any one node.
//
//	GET /debug/cluster     every member's metric families, asked for as
//	                       JSON (/metrics?format=json), merged into one
//	                       exposition (aggregates + per-node labels)
//	GET /debug/trace/{id}  that trace's spans collected from every
//	                       member's flight recorder and stitched into one
//	                       cross-node timeline
//
// Both ask each member for its *local* view through fanOut — leaf
// endpoints that never fan out themselves — so the sweep cannot recurse.
// Members that do not answer, or whose reply does not decode, degrade the
// view instead of failing it: /debug/cluster reports them at 0 in the
// linksynthd_cluster_node_up gauge, /debug/trace lists them under "down".
// Single-node servers serve both endpoints from local state alone.

// telemetryTimeout bounds one whole fan-out sweep; a hung peer must not
// pin a debug request for the caller's full patience.
const telemetryTimeout = 10 * time.Second

// fanOut GETs path from every other live member within one
// telemetryTimeout and hands each reply to take. It returns the members
// that did not answer or whose reply take refused, sorted.
func (s *Server) fanOut(ctx context.Context, path string, take func(node string, body []byte) error) (down []string) {
	if s.clu == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(ctx, telemetryTimeout)
	defer cancel()
	for _, node := range s.clu.Nodes() {
		if node == s.clu.Self() {
			continue // answered in-process
		}
		b, err := s.clu.FetchDebug(ctx, node, path)
		if err == nil {
			err = take(node, b)
		}
		if err != nil {
			down = append(down, node)
		}
	}
	return down
}

// handleClusterMetrics serves GET /debug/cluster: this node's families,
// taken in process, merged with every live peer's, in the same validated
// format as a single node's /metrics (check_metrics.sh passes on both).
// A peer on an older build answers ?format=json with text, which does not
// decode, so during a rolling upgrade it shows as down.
func (s *Server) handleClusterMetrics(w http.ResponseWriter, r *http.Request) {
	nodes := map[string][]obsv.Family{s.obs.Node: s.metricsExposition().Families()}
	down := s.fanOut(r.Context(), "/metrics?format=json", func(node string, b []byte) error {
		fams, err := obsv.DecodeFamilies(b)
		if err == nil {
			nodes[node] = fams
		}
		return err
	})
	merged, err := obsv.Merge(nodes, down)
	if err != nil {
		writeError(w, http.StatusBadGateway, "merge cluster metrics: %v", err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(merged))
}

// clusterTraceJSON is the wire form of GET /debug/trace/{id}: every
// member's record of the trace plus the stitched cross-node timeline.
type clusterTraceJSON struct {
	TraceID  string             `json:"trace_id"`
	Nodes    []string           `json:"nodes"`          // members contributing records, sorted
	Down     []string           `json:"down,omitempty"` // members that could not be asked
	Traces   []obsv.TraceJSON   `json:"traces"`
	Timeline []timelineSpanJSON `json:"timeline"`
}

// timelineSpanJSON is one span on the stitched timeline, attributed to
// the node that recorded it.
type timelineSpanJSON struct {
	Node  string        `json:"node"`
	Name  string        `json:"name"`
	Start time.Time     `json:"start"`
	Dur   time.Duration `json:"dur_ns"`
}

// handleClusterTrace serves GET /debug/trace/{id}: it asks every member's
// flight recorder for the trace (the ?trace= filter keeps the transfers
// small) and stitches the spans into one wall-clock-ordered timeline, so
// a forwarded or failed-over solve is debuggable from any entry node.
func (s *Server) handleClusterTrace(w http.ResponseWriter, r *http.Request, id string) {
	if id == "" {
		writeError(w, http.StatusNotFound, "no trace id")
		return
	}
	var traces []obsv.TraceJSON
	for _, t := range s.obs.Recorder.Traces() {
		if t.ID == id {
			traces = append(traces, t)
		}
	}
	down := s.fanOut(r.Context(), "/debug/flight?trace="+url.QueryEscape(id), func(_ string, b []byte) error {
		var fj flightJSON
		if err := json.Unmarshal(b, &fj); err != nil {
			return err
		}
		traces = append(traces, fj.Traces...)
		return nil
	})
	if len(traces) == 0 {
		writeError(w, http.StatusNotFound, "trace %s not found on any reachable member", id)
		return
	}
	// Deterministic record order: by node, then by start time (one node
	// can record the same id more than once, e.g. a retried forward).
	sort.SliceStable(traces, func(i, j int) bool {
		if traces[i].Node != traces[j].Node {
			return traces[i].Node < traces[j].Node
		}
		return traces[i].Start.Before(traces[j].Start)
	})
	nodeSet := map[string]bool{}
	var timeline []timelineSpanJSON
	for _, t := range traces {
		nodeSet[t.Node] = true
		for _, sp := range t.Spans {
			timeline = append(timeline, timelineSpanJSON{Node: t.Node, Name: sp.Name, Start: sp.Start, Dur: sp.Dur})
		}
	}
	sort.SliceStable(timeline, func(i, j int) bool {
		if !timeline[i].Start.Equal(timeline[j].Start) {
			return timeline[i].Start.Before(timeline[j].Start)
		}
		if timeline[i].Node != timeline[j].Node {
			return timeline[i].Node < timeline[j].Node
		}
		return timeline[i].Name < timeline[j].Name
	})
	nodes := make([]string, 0, len(nodeSet))
	for n := range nodeSet {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	writeJSON(w, http.StatusOK, clusterTraceJSON{
		TraceID: id, Nodes: nodes, Down: down, Traces: traces, Timeline: timeline,
	})
}
