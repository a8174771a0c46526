package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/core"
)

// swapHandler lets an httptest server start (so its URL is known) before
// the Server that needs that URL exists, and lets tests replace a live
// node's behavior to simulate failures.
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (sw *swapHandler) set(h http.Handler) {
	sw.mu.Lock()
	sw.h = h
	sw.mu.Unlock()
}

func (sw *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sw.mu.RLock()
	h := sw.h
	sw.mu.RUnlock()
	if h == nil {
		http.Error(w, "node not ready", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

type clusterNode struct {
	srv  *Server
	ts   *httptest.Server
	clu  *cluster.Cluster
	swap *swapHandler
	url  string
}

// newTestCluster stands up n sharded nodes on loopback httptest servers,
// each with its own cache and a full peer list. Background probing is off;
// peers start optimistically up and liveness changes flow from observed
// forward failures, which keeps the tests deterministic.
func newTestCluster(t *testing.T, n int) []*clusterNode {
	t.Helper()
	nodes := make([]*clusterNode, n)
	urls := make([]string, n)
	for i := range nodes {
		sw := &swapHandler{}
		ts := httptest.NewServer(sw)
		t.Cleanup(ts.Close)
		nodes[i] = &clusterNode{ts: ts, swap: sw, url: ts.URL}
		urls[i] = ts.URL
	}
	for i, nd := range nodes {
		c, err := cache.Open("", 64)
		if err != nil {
			t.Fatal(err)
		}
		clu, err := cluster.New(cluster.Config{
			Self:         nd.url,
			Peers:        urls,
			PollInterval: 2 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		s := New(Config{Cache: c, Workers: 2, Cluster: clu})
		t.Cleanup(s.Close)
		nd.srv, nd.clu = s, clu
		nd.swap.set(s)
		_ = i
	}
	return nodes
}

func keyOf(t *testing.T, inst InstanceJSON, opt *OptionsJSON) cache.Key {
	t.Helper()
	// Round-trip through the wire encoding: raw Go int cells only become
	// decodable json.Numbers after marshaling, exactly as in a real request.
	b, err := json.Marshal(inst)
	if err != nil {
		t.Fatal(err)
	}
	var wire InstanceJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	if err := dec.Decode(&wire); err != nil {
		t.Fatal(err)
	}
	in, err := wire.toInput()
	if err != nil {
		t.Fatal(err)
	}
	o, err := opt.toOptions()
	if err != nil {
		t.Fatal(err)
	}
	k, err := core.Fingerprint(in, o)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// instanceOwnedBy mints test instances (bumping from start) until one's
// fingerprint rendezvous-hashes to the wanted owner.
func instanceOwnedBy(t *testing.T, nodes []string, owner string, opt *OptionsJSON, start int64) InstanceJSON {
	t.Helper()
	for b := start; b < start+512; b++ {
		inst := testInstance(b)
		if cluster.Owner(keyOf(t, inst, opt), nodes) == owner {
			return inst
		}
	}
	t.Fatalf("no instance owned by %s in 512 tries", owner)
	return InstanceJSON{}
}

func totalMetric(t *testing.T, nodes []*clusterNode, name string) int64 {
	t.Helper()
	var sum int64
	for _, nd := range nodes {
		sum += metricValue(t, nd.url, name)
	}
	return sum
}

func waitJobDone(t *testing.T, url, id string) jobStatusJSON {
	t.Helper()
	var js jobStatusJSON
	for i := 0; i < 800; i++ {
		resp, err := http.Get(url + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(readBody(t, resp), &js); err != nil {
			t.Fatal(err)
		}
		if js.Status == jobDone || js.Status == jobCanceled {
			return js
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished; last status %q", id, js.Status)
	return js
}

// Acceptance (a) + (b): the identical request sent to every node returns a
// byte-identical body, and the whole cluster runs the solver exactly once
// for the distinct fingerprint — the owner solves, every other node
// forwards, and the owner's cache is the single authoritative copy.
func TestClusterAnyNodeByteIdenticalSingleSolve(t *testing.T) {
	nodes := newTestCluster(t, 3)
	opt := &OptionsJSON{Seed: 1}
	req := SolveRequest{InstanceJSON: testInstance(1000), Options: opt}

	key := keyOf(t, req.InstanceJSON, opt)
	ownerURL := cluster.Owner(key, nodes[0].clu.Nodes())

	var bodies [][]byte
	for _, nd := range nodes {
		resp := postJSON(t, nd.url+"/v1/solve", req)
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("node %s: status %d: %s", nd.url, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Linksynth-Node"); got != ownerURL {
			t.Errorf("node %s served by %q, want owner %q", nd.url, got, ownerURL)
		}
		bodies = append(bodies, body)
	}
	for i := 1; i < len(bodies); i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Errorf("body from node %d differs from node 0", i)
		}
	}
	if runs := totalMetric(t, nodes, "solver_runs_total"); runs != 1 {
		t.Errorf("cluster-wide solver runs = %d, want 1", runs)
	}
	// Only the owner's cache holds the entry: shards are authoritative,
	// non-owners stay empty.
	for _, nd := range nodes {
		want := int64(0)
		if nd.url == ownerURL {
			want = 1
		}
		if got := metricValue(t, nd.url, "cache_entries"); got != want {
			t.Errorf("node %s cache entries = %d, want %d", nd.url, got, want)
		}
	}
	if fwd := totalMetric(t, nodes, "cluster_forwarded_total"); fwd != 2 {
		t.Errorf("forwarded = %d, want 2 (one per non-owner entry node)", fwd)
	}
}

// A batch posted to one node scatters sub-jobs to the owning nodes and
// gathers their results under the parent job id; every distinct instance
// still solves exactly once cluster-wide, on its owner.
func TestClusterBatchScatterGather(t *testing.T) {
	nodes := newTestCluster(t, 3)
	opt := &OptionsJSON{Seed: 1}
	entry := nodes[0]
	all := entry.clu.Nodes()

	// One instance owned by each node, so the scatter has a local group and
	// two remote groups, plus a duplicate to exercise merge fan-in.
	var insts []InstanceJSON
	for _, owner := range all {
		insts = append(insts, instanceOwnedBy(t, all, owner, opt, 2000+int64(len(insts))*600))
	}
	insts = append(insts, insts[1]) // duplicate of a (likely remote) instance

	resp := postJSON(t, entry.url+"/v1/batch", BatchRequest{Instances: insts, Options: opt})
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	var js jobStatusJSON
	if err := json.Unmarshal(body, &js); err != nil {
		t.Fatal(err)
	}
	js = waitJobDone(t, entry.url, js.ID)
	if js.Status != jobDone {
		t.Fatalf("job status %q, want done", js.Status)
	}
	if len(js.Results) != len(insts) {
		t.Fatalf("results = %d, want %d", len(js.Results), len(insts))
	}
	for i, raw := range js.Results {
		var sr SolveResponse
		if err := json.Unmarshal(raw, &sr); err != nil || sr.Key == "" {
			t.Errorf("result %d not a SolveResponse: %v: %s", i, err, raw)
		}
	}
	if !bytes.Equal(js.Results[1], js.Results[3]) {
		t.Error("duplicate instances got different result bytes")
	}
	if runs := totalMetric(t, nodes, "solver_runs_total"); runs != 3 {
		t.Errorf("cluster-wide solver runs = %d, want 3 (one per distinct instance)", runs)
	}
	// Each instance must have been solved by (and cached on) its owner.
	for i, owner := range all {
		key := keyOf(t, insts[i], opt)
		for _, nd := range nodes {
			_, ok := nd.srv.cache.Get(key)
			if want := nd.url == owner; ok != want {
				t.Errorf("instance %d: cache presence on %s = %v, want %v", i, nd.url, ok, want)
			}
		}
	}
	if got := metricValue(t, entry.url, "cluster_scatter_jobs_total"); got != 1 {
		t.Errorf("scatter jobs on entry node = %d, want 1", got)
	}
}

// Acceptance (c): a peer that dies mid-batch — after accepting its
// sub-job, before delivering results — does not sink the batch. The
// gathering node re-solves the lost group locally and the job completes
// with correct results.
func TestClusterBatchPeerDiesMidJob(t *testing.T) {
	nodes := newTestCluster(t, 2)
	opt := &OptionsJSON{Seed: 1}
	a, b := nodes[0], nodes[1]
	all := a.clu.Nodes()

	insts := []InstanceJSON{
		instanceOwnedBy(t, all, a.url, opt, 4000),
		instanceOwnedBy(t, all, b.url, opt, 4600),
	}

	// Wrap B: the sub-batch POST passes through (and signals), then every
	// poll hangs until B is "killed", after which all requests fail — the
	// shape of a node that accepted work and died before finishing it.
	accepted := make(chan struct{}, 1)
	killed := make(chan struct{})
	real := b.srv
	b.swap.set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/batch":
			real.ServeHTTP(w, r)
			select {
			case accepted <- struct{}{}:
			default:
			}
		default:
			<-killed
			http.Error(w, "node is dead", http.StatusInternalServerError)
		}
	}))

	resp := postJSON(t, a.url+"/v1/batch", BatchRequest{Instances: insts, Options: opt})
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	var js jobStatusJSON
	if err := json.Unmarshal(body, &js); err != nil {
		t.Fatal(err)
	}

	select {
	case <-accepted:
	case <-time.After(10 * time.Second):
		t.Fatal("sub-batch never reached the peer")
	}
	close(killed) // B dies mid-job

	js = waitJobDone(t, a.url, js.ID)
	if js.Status != jobDone {
		t.Fatalf("job status %q, want done despite peer death", js.Status)
	}
	if len(js.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(js.Results))
	}
	for i, raw := range js.Results {
		var sr SolveResponse
		if err := json.Unmarshal(raw, &sr); err != nil || sr.Key == "" {
			t.Fatalf("result %d not a valid SolveResponse after fallback: %s", i, raw)
		}
	}
	// The lost group was re-solved locally on A, byte-identically.
	if fb := metricValue(t, a.url, "cluster_gather_fallbacks_total"); fb != 1 {
		t.Errorf("gather fallbacks on A = %d, want 1", fb)
	}
	key := keyOf(t, insts[1], opt)
	if _, ok := a.srv.cache.Get(key); !ok {
		t.Error("fallback solve did not land in A's cache")
	}
}

// A dead owner on the sync path: the forward fails in transport, the owner
// is marked down immediately, and the request degrades to a local solve.
func TestClusterSolveFallsBackWhenOwnerDown(t *testing.T) {
	nodes := newTestCluster(t, 2)
	opt := &OptionsJSON{Seed: 1}
	a, b := nodes[0], nodes[1]
	inst := instanceOwnedBy(t, a.clu.Nodes(), b.url, opt, 6000)

	b.ts.Close() // connection refused from now on

	resp := postJSON(t, a.url+"/v1/solve", SolveRequest{InstanceJSON: inst, Options: opt})
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Linksynth-Node"); got != a.url {
		t.Errorf("served by %q, want local fallback on %q", got, a.url)
	}
	if fb := metricValue(t, a.url, "cluster_forward_fallbacks_total"); fb != 1 {
		t.Errorf("forward fallbacks = %d, want 1", fb)
	}
	if up := metricValue(t, a.url, "cluster_peers_up"); up != 0 {
		t.Errorf("peers up after transport failure = %d, want 0", up)
	}

	// With B marked down, A owns everything: a second request for the same
	// instance is a local cache hit, no forward attempt.
	resp2 := postJSON(t, a.url+"/v1/solve", SolveRequest{InstanceJSON: inst, Options: opt})
	body2 := readBody(t, resp2)
	if got := resp2.Header.Get("X-Linksynth-Cache"); got != "hit" {
		t.Errorf("second request cache = %q, want hit", got)
	}
	if !bytes.Equal(body, body2) {
		t.Error("fallback solve and cache hit bodies differ")
	}
	if fb := metricValue(t, a.url, "cluster_forward_fallbacks_total"); fb != 1 {
		t.Errorf("forward fallbacks after cache hit = %d, want still 1", fb)
	}
}

// The hop guard: a request that already crossed a node boundary is
// answered locally even by a non-owner, so divergent liveness views can
// never forward in circles.
func TestClusterHopGuardServesLocally(t *testing.T) {
	nodes := newTestCluster(t, 2)
	opt := &OptionsJSON{Seed: 1}
	a, b := nodes[0], nodes[1]
	inst := instanceOwnedBy(t, a.clu.Nodes(), b.url, opt, 8000)

	body, err := json.Marshal(SolveRequest{InstanceJSON: inst, Options: opt})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, a.url+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(cluster.HopHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	rb := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, rb)
	}
	if got := metricValue(t, a.url, "cluster_forwarded_total"); got != 0 {
		t.Errorf("hop-guarded request was re-forwarded (%d forwards)", got)
	}
	if got := metricValue(t, a.url, "cluster_hop_served_total"); got != 1 {
		t.Errorf("hop served = %d, want 1", got)
	}
	if runs := metricValue(t, a.url, "solver_runs_total"); runs != 1 {
		t.Errorf("solver runs on A = %d, want 1 (local solve despite remote ownership)", runs)
	}
}

// Cluster state is visible operationally: /healthz names the node and its
// peer view, /metrics carries the cluster gauges.
func TestClusterHealthzAndMetricsExposeTopology(t *testing.T) {
	nodes := newTestCluster(t, 3)
	resp, err := http.Get(nodes[0].url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Status string               `json:"status"`
		Node   string               `json:"node"`
		Peers  []cluster.PeerStatus `json:"peers"`
	}
	if err := json.Unmarshal(readBody(t, resp), &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || hz.Node != nodes[0].url {
		t.Errorf("healthz = %+v", hz)
	}
	if len(hz.Peers) != 2 {
		t.Fatalf("healthz peers = %d, want 2", len(hz.Peers))
	}
	for _, p := range hz.Peers {
		if !p.Up {
			t.Errorf("peer %s reported down in a healthy cluster", p.URL)
		}
	}
	if known := metricValue(t, nodes[0].url, "cluster_peers_known"); known != 2 {
		t.Errorf("cluster_peers_known = %d, want 2", known)
	}
}

// A peer whose /metrics reply runs past the telemetry read limit (16 MiB)
// must not make the node buffer it: the merged scrape lists the peer as
// down and carries none of its bytes. The peer answered, so it stays up
// for routing.
func TestClusterMetricsRefusesOversizedPeerScrape(t *testing.T) {
	nodes := newTestCluster(t, 2)
	line := []byte("streamed_junk_total 1\n")
	nodes[1].swap.set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for sent := 0; sent < 64<<20; sent += len(line) {
			if _, err := w.Write(line); err != nil {
				return // the reader gave up, as it must
			}
		}
	}))
	resp, err := http.Get(nodes[0].url + "/debug/cluster")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	body := string(readBody(t, resp))
	if strings.Contains(body, "streamed_junk_total") {
		t.Fatal("merged scrape relays bytes of the oversized reply")
	}
	if want := `linksynthd_cluster_node_up{node="` + nodes[1].url + `"} 0`; !strings.Contains(body, want) {
		t.Fatalf("merged scrape lacks %q", want)
	}
	if up := nodes[0].clu.UpNodes(); len(up) != 2 {
		t.Fatalf("oversized reply marked the peer down: up = %v", up)
	}
}

// A peer whose /metrics?format=json reply does not decode is listed as
// down, and the view is still served. The text exposition is what a peer
// of an older build answers, so mid-upgrade it shows as down too.
func TestClusterMetricsListsUndecodablePeerAsDown(t *testing.T) {
	nodes := newTestCluster(t, 2)
	text := func() string {
		resp, err := http.Get(nodes[1].url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		return string(readBody(t, resp))
	}()
	for name, reply := range map[string]string{
		"garbage":         "\x00not json{",
		"text exposition": text,
		"bad family":      `[{"name":"linksynthd_cluster_node_up","type":"gauge","samples":[{"value":1}]}]`,
	} {
		nodes[1].swap.set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte(reply))
		}))
		resp, err := http.Get(nodes[0].url + "/debug/cluster")
		if err != nil {
			t.Fatal(err)
		}
		body := string(readBody(t, resp))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, resp.StatusCode, body)
		}
		for _, want := range []string{
			`linksynthd_cluster_node_up{node="` + nodes[0].url + `"} 1`,
			`linksynthd_cluster_node_up{node="` + nodes[1].url + `"} 0`,
		} {
			if !strings.Contains(body, want+"\n") {
				t.Fatalf("%s: merged scrape lacks %q:\n%s", name, want, body)
			}
		}
		if n := strings.Count(body, `node="`+nodes[1].url+`"`); n != 1 {
			t.Fatalf("%s: the down peer is on %d lines, want only its node_up line:\n%s", name, n, body)
		}
	}
}
