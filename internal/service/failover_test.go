package service

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/store"
)

// This file is the elasticity acceptance suite: K-successor replication,
// warm failover when the owner dies mid-traffic, join-without-restart,
// session migration on membership change, and the hardened forward chain
// (503 when every candidate is gone, never a silent local cold solve).

// newElasticShell stands up a node's HTTP shell so its URL exists before
// any cluster view references it; startElastic wires the Server in. Split
// so join tests can start nodes with differing seed lists.
func newElasticShell(t *testing.T) *clusterNode {
	t.Helper()
	sw := &swapHandler{}
	ts := httptest.NewServer(sw)
	t.Cleanup(ts.Close)
	return &clusterNode{ts: ts, swap: sw, url: ts.URL}
}

func startElastic(t *testing.T, nd *clusterNode, peers []string, replicas int, withStore bool) {
	t.Helper()
	var st *store.Store
	if withStore {
		var err error
		if st, err = store.Open(t.TempDir()); err != nil {
			t.Fatal(err)
		}
	}
	c, err := cache.Open("", 64)
	if err != nil {
		t.Fatal(err)
	}
	clu, err := cluster.New(cluster.Config{
		Self:         nd.url,
		Peers:        peers,
		PollInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Cache: c, Workers: 2, Cluster: clu, Replicas: replicas, Store: st})
	t.Cleanup(s.Close)
	nd.srv, nd.clu = s, clu
	nd.swap.set(s)
}

// newElasticCluster is newTestCluster plus replication and (optionally) a
// per-node durable store — the full linksynthd -replicas/-data-dir shape.
func newElasticCluster(t *testing.T, n, replicas int, withStore bool) []*clusterNode {
	t.Helper()
	nodes := make([]*clusterNode, n)
	urls := make([]string, n)
	for i := range nodes {
		nodes[i] = newElasticShell(t)
		urls[i] = nodes[i].url
	}
	for _, nd := range nodes {
		startElastic(t, nd, urls, replicas, withStore)
	}
	return nodes
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// instanceWhere mints test instances (bumping from start) until one's
// fingerprint satisfies the predicate — the generalization of
// instanceOwnedBy for tests that constrain the whole rank order.
func instanceWhere(t *testing.T, opt *OptionsJSON, start int64, pred func(cache.Key) bool) (InstanceJSON, cache.Key) {
	t.Helper()
	for b := start; b < start+2048; b++ {
		inst := testInstance(b)
		if k := keyOf(t, inst, opt); pred(k) {
			return inst, k
		}
	}
	t.Fatal("no instance satisfying the predicate in 2048 tries")
	return InstanceJSON{}, cache.Key{}
}

// warmDelta edits a cell without touching constraint targets, so the
// patched instance keeps the base's structural fingerprint — a session
// restored from replicated artifacts (which carries the plan, not live
// solver state) re-solves it warm, never cold.
func warmDelta() *DeltaJSON {
	return &DeltaJSON{R1Edits: []CellEditJSON{{Row: 1, Col: "Age", Val: 33}}}
}

func nodeByURL(t *testing.T, nodes []*clusterNode, url string) *clusterNode {
	t.Helper()
	for _, nd := range nodes {
		if nd.url == url {
			return nd
		}
	}
	t.Fatalf("no node with url %s", url)
	return nil
}

// A batch-solved key replicates like a sync-solved one: with one replica,
// a one-instance batch on the key's owner reaches its ring-successor.
func TestClusterBatchResultReplicates(t *testing.T) {
	nodes := newElasticCluster(t, 2, 1, false)
	opts := &OptionsJSON{Seed: 1}
	inst := instanceOwnedBy(t, []string{nodes[0].url, nodes[1].url}, nodes[0].url, opts, 3000)
	resp := postJSON(t, nodes[0].url+"/v1/batch", BatchRequest{Instances: []InstanceJSON{inst}, Options: opts})
	var js jobStatusJSON
	if err := json.Unmarshal(readBody(t, resp), &js); err != nil {
		t.Fatal(err)
	}
	if js = waitJobDone(t, nodes[0].url, js.ID); js.Status != jobDone {
		t.Fatalf("job ended %q", js.Status)
	}
	waitFor(t, "the batch result's replica", func() bool {
		return metricValue(t, nodes[1].url, "cluster_replica_ingested_total") >= 1
	})
}

// The tentpole acceptance check: with -replicas 2, killing a key's owner
// mid-traffic leaves its successors answering byte-identically from the
// replicated cache entry — zero solver runs on any survivor, and the
// failover is visible in the replica/failover counters.
func TestClusterWarmFailoverServesReplicatedKey(t *testing.T) {
	nodes := newElasticCluster(t, 3, 2, false)
	opt := &OptionsJSON{Seed: 1}
	all := nodes[0].clu.Nodes()

	inst := instanceOwnedBy(t, all, cluster.Owner(keyOf(t, testInstance(10000), opt), all), opt, 10000)
	key := keyOf(t, inst, opt)
	owner := nodeByURL(t, nodes, cluster.Owner(key, all))

	resp := postJSON(t, owner.url+"/v1/solve", SolveRequest{InstanceJSON: inst, Options: opt})
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("owner solve status %d: %s", resp.StatusCode, body)
	}

	// Replication is asynchronous: wait until both ring-successors hold
	// the entry (3 nodes, K=2 — every non-owner is a successor).
	var survivors []*clusterNode
	for _, nd := range nodes {
		if nd != owner {
			survivors = append(survivors, nd)
		}
	}
	for _, sv := range survivors {
		sv := sv
		waitFor(t, "replica push to "+sv.url, func() bool {
			_, ok := sv.srv.cache.Get(key)
			return ok
		})
	}

	owner.ts.Close() // the owner dies mid-traffic
	for _, sv := range survivors {
		sv.clu.ProbeNow(context.Background()) // observe the death
	}

	for _, sv := range survivors {
		resp := postJSON(t, sv.url+"/v1/solve", SolveRequest{InstanceJSON: inst, Options: opt})
		got := readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("failover solve on %s: status %d: %s", sv.url, resp.StatusCode, got)
		}
		if !bytes.Equal(got, body) {
			t.Errorf("failover body from %s differs from the owner's original bytes", sv.url)
		}
		if h := resp.Header.Get("X-Linksynth-Cache"); h != "hit" {
			t.Errorf("failover on %s: cache header %q, want hit", sv.url, h)
		}
		if h := resp.Header.Get("X-Linksynth-Node"); h != sv.url {
			t.Errorf("failover served by %q, want the surviving replica %q itself", h, sv.url)
		}
		if runs := metricValue(t, sv.url, "solver_runs_total"); runs != 0 {
			t.Errorf("survivor %s ran the solver %d times for a replicated key, want 0", sv.url, runs)
		}
		if served := metricValue(t, sv.url, "cluster_replica_served_total"); served < 1 {
			t.Errorf("survivor %s replica_served = %d, want >= 1", sv.url, served)
		}
		if fo := metricValue(t, sv.url, "cluster_failovers_total"); fo < 1 {
			t.Errorf("survivor %s failovers = %d, want >= 1", sv.url, fo)
		}
	}
}

// Delta traffic survives owner death warm: the base's durable session
// artifacts were replicated to the successors, so the new owner restores
// the session from its *local* store — zero cold solves, zero peer pulls —
// and answers the same delta byte-identically.
func TestClusterDeltaWarmFailoverFromReplicatedArtifacts(t *testing.T) {
	nodes := newElasticCluster(t, 3, 2, true)
	opt := &OptionsJSON{Seed: 1}
	all := nodes[0].clu.Nodes()

	inst := instanceOwnedBy(t, all, cluster.Owner(keyOf(t, testInstance(12000), opt), all), opt, 12000)
	base := keyOf(t, inst, opt)
	baseHex := hex.EncodeToString(base[:])
	owner := nodeByURL(t, nodes, cluster.Owner(base, all))

	resp := postJSON(t, owner.url+"/v1/solve", SolveRequest{InstanceJSON: inst, Options: opt})
	if b := readBody(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("base solve status %d: %s", resp.StatusCode, b)
	}
	resp = postJSON(t, owner.url+"/v1/solve", SolveRequest{Base: baseHex, Delta: warmDelta()})
	deltaBody := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta on owner status %d: %s", resp.StatusCode, deltaBody)
	}

	var survivors []*clusterNode
	for _, nd := range nodes {
		if nd != owner {
			survivors = append(survivors, nd)
		}
	}
	// Wait until every successor can restore the session entirely from its
	// own store: session record plus both snapshots it references.
	for _, sv := range survivors {
		sv := sv
		waitFor(t, "session artifacts replicated to "+sv.url, func() bool {
			rec, err := sv.srv.store.LoadSession(base)
			if err != nil {
				return false
			}
			for _, fp := range []cache32{rec.R1FP, rec.R2FP} {
				if _, _, err := sv.srv.store.ReadFile(fp); err != nil {
					return false
				}
			}
			return true
		})
	}

	owner.ts.Close()
	for _, sv := range survivors {
		sv.clu.ProbeNow(context.Background())
	}

	survivorURLs := []string{survivors[0].url, survivors[1].url}
	next := nodeByURL(t, nodes, cluster.Owner(base, survivorURLs))
	resp = postJSON(t, next.url+"/v1/solve", SolveRequest{Base: baseHex, Delta: warmDelta()})
	got := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta after owner death: status %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, deltaBody) {
		t.Error("failover delta body differs from the owner's original bytes")
	}
	if n := metricValue(t, next.url, "store_sessions_restored_total"); n != 1 {
		t.Errorf("successor sessions_restored = %d, want 1 (restored from replicated artifacts)", n)
	}
	for _, sv := range survivors {
		if n := metricValue(t, sv.url, "incr_cold_solves_total"); n != 0 {
			t.Errorf("survivor %s cold solves = %d, want 0", sv.url, n)
		}
		if n := metricValue(t, sv.url, "store_handoff_fetches_total"); n != 0 {
			t.Errorf("survivor %s handoff fetches = %d, want 0 (artifacts were already local)", sv.url, n)
		}
	}
}

// Join without restart: a node with an empty seed list announces itself to
// one member, the member set gossips out on the probe cycle, and the
// joiner begins owning and serving its key range — no process restarted,
// no -peers flag edited.
func TestClusterJoinWithoutRestart(t *testing.T) {
	a, b, c := newElasticShell(t), newElasticShell(t), newElasticShell(t)
	startElastic(t, a, []string{a.url, b.url}, 0, false)
	startElastic(t, b, []string{a.url, b.url}, 0, false)
	startElastic(t, c, nil, 0, false)

	if err := c.clu.JoinVia(context.Background(), a.url); err != nil {
		t.Fatal(err)
	}
	// B hears about C on its next probe of A — the gossip hop.
	b.clu.ProbeNow(context.Background())
	for _, nd := range []*clusterNode{a, b, c} {
		if got := metricValue(t, nd.url, "cluster_members"); got != 3 {
			t.Fatalf("node %s cluster_members = %d, want 3", nd.url, got)
		}
	}

	// A key the three-node ring assigns to the joiner, posted to an old
	// member: it must be forwarded to — and solved by — the new node.
	opt := &OptionsJSON{Seed: 1}
	all := []string{a.url, b.url, c.url}
	inst := instanceOwnedBy(t, all, c.url, opt, 13000)
	resp := postJSON(t, a.url+"/v1/solve", SolveRequest{InstanceJSON: inst, Options: opt})
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve via old member: status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Linksynth-Node"); got != c.url {
		t.Errorf("served by %q, want the joiner %q", got, c.url)
	}
	if runs := metricValue(t, c.url, "solver_runs_total"); runs != 1 {
		t.Errorf("joiner solver runs = %d, want 1", runs)
	}
	if got := metricValue(t, c.url, "cluster_membership_epoch"); got < 1 {
		t.Errorf("joiner membership epoch = %d, want >= 1", got)
	}
}

// Membership change moves warm state, not just ownership: when a joiner
// takes over a parked session's base, the old owner streams the session
// (cache body plus durable artifacts) to it, and the next delta lands on
// a node that is already warm.
func TestClusterMembershipChangeMigratesSessions(t *testing.T) {
	a, b, c := newElasticShell(t), newElasticShell(t), newElasticShell(t)
	startElastic(t, a, []string{a.url, b.url}, 0, true)
	startElastic(t, b, []string{a.url, b.url}, 0, true)
	startElastic(t, c, nil, 0, true)

	// A base A owns under the two-node ring that moves to C when C joins.
	opt := &OptionsJSON{Seed: 1}
	inst, base := instanceWhere(t, opt, 14000, func(k cache.Key) bool {
		return cluster.Owner(k, []string{a.url, b.url}) == a.url &&
			cluster.Owner(k, []string{a.url, b.url, c.url}) == c.url
	})
	baseHex := hex.EncodeToString(base[:])
	resp := postJSON(t, a.url+"/v1/solve", SolveRequest{InstanceJSON: inst, Options: opt})
	if body := readBody(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("base solve status %d: %s", resp.StatusCode, body)
	}
	waitFor(t, "session persisted on the old owner", func() bool {
		return metricValue(t, a.url, "store_sessions_persisted_total") >= 1
	})
	hits, misses := metricValue(t, a.url, "cache_hits_total"), metricValue(t, a.url, "cache_misses_total")

	if err := c.clu.JoinVia(context.Background(), a.url); err != nil {
		t.Fatal(err)
	}
	// A's membership watcher reacts to the join and streams the session to
	// its new owner; wait until C can restore it without asking anyone.
	waitFor(t, "session migrated to the joiner", func() bool {
		rec, err := c.srv.store.LoadSession(base)
		if err != nil {
			return false
		}
		for _, fp := range []cache32{rec.R1FP, rec.R2FP} {
			if _, _, err := c.srv.store.ReadFile(fp); err != nil {
				return false
			}
		}
		_, ok := c.srv.cache.Get(base)
		return ok
	})
	// migrateSessions counts a session only after its pushes return, which
	// can be a moment after the joiner already holds the state.
	waitFor(t, "old owner counts the migrated session", func() bool {
		return metricValue(t, a.url, "cluster_sessions_migrated_total") >= 1
	})
	// Migration pushes through the replication push and counts with it; no
	// node here replicates, so every push A counts is a migration's.
	if got := metricValue(t, a.url, "cluster_replica_pushed_total"); got < 4 {
		t.Errorf("old owner replica_pushed = %d, want >= 4: the result file, two snapshots and the session record", got)
	}
	// Handing the body over serves no request: the old owner counts no
	// cache hit or miss for it.
	if got := metricValue(t, a.url, "cache_hits_total"); got != hits {
		t.Errorf("old owner cache_hits went %d -> %d during the migration", hits, got)
	}
	if got := metricValue(t, a.url, "cache_misses_total"); got != misses {
		t.Errorf("old owner cache_misses went %d -> %d during the migration", misses, got)
	}

	resp = postJSON(t, c.url+"/v1/solve", SolveRequest{Base: baseHex, Delta: warmDelta()})
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta on the new owner: status %d: %s", resp.StatusCode, body)
	}
	if got := metricValue(t, c.url, "store_sessions_restored_total"); got != 1 {
		t.Errorf("new owner sessions_restored = %d, want 1", got)
	}
	if got := metricValue(t, c.url, "incr_cold_solves_total"); got != 0 {
		t.Errorf("new owner cold solves = %d, want 0 — the migrated state was not warm", got)
	}
	if got := metricValue(t, c.url, "store_handoff_fetches_total"); got != 0 {
		t.Errorf("new owner handoff fetches = %d, want 0 (state was pushed, not pulled)", got)
	}
	if got := metricValue(t, c.url, "cluster_replica_ingested_total"); got < 1 {
		t.Errorf("new owner replica_ingested = %d, want >= 1", got)
	}
}

// When every node in a key's successor chain fails with 5xx, the entry
// node answers 503 + Retry-After — it does not mask a dead cluster as
// capacity by silently cold-solving locally. (A *transport* failure still
// falls back locally once the rank reshapes; that path is pinned by
// TestClusterSolveFallsBackWhenOwnerDown.)
func TestClusterForwardExhaustedReturns503(t *testing.T) {
	nodes := newTestCluster(t, 3)
	opt := &OptionsJSON{Seed: 1}
	a := nodes[0]
	all := a.clu.Nodes()

	// A key ranking self last, so both forward attempts go to peers.
	inst, _ := instanceWhere(t, opt, 15000, func(k cache.Key) bool {
		return cluster.Rank(k, all)[2] == a.url
	})
	boom := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "node is sick", http.StatusInternalServerError)
	})
	nodes[1].swap.set(boom)
	nodes[2].swap.set(boom)

	resp := postJSON(t, a.url+"/v1/solve", SolveRequest{InstanceJSON: inst, Options: opt})
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if got := metricValue(t, a.url, "cluster_forward_exhausted_total"); got != 1 {
		t.Errorf("forward_exhausted = %d, want 1", got)
	}
	if got := metricValue(t, a.url, "cluster_forward_fallbacks_total"); got != 2 {
		t.Errorf("forward_fallbacks = %d, want 2 (one per failed attempt)", got)
	}
	if runs := metricValue(t, a.url, "solver_runs_total"); runs != 0 {
		t.Errorf("entry node ran the solver %d times, want 0 — 5xx peers are up, not absent", runs)
	}
	// 5xx is an application failure from a live process: liveness is
	// untouched, so recovery needs no probe cycle.
	if up := metricValue(t, a.url, "cluster_peers_up"); up != 2 {
		t.Errorf("peers_up = %d, want 2", up)
	}
}

// postStore pushes data to url's /v1/store/ gate under fpHex, the way a
// replicating peer does, and returns the status.
func postStore(t *testing.T, url, fpHex string, data []byte) int {
	t.Helper()
	r, err := http.Post(url+"/v1/store/"+fpHex, "application/octet-stream", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, r)
	return r.StatusCode
}

// solveOwned has nodes[0] solve a fresh instance it owns and returns the
// request, its key and the canonical body.
func solveOwned(t *testing.T, nodes []*clusterNode, start int64) (SolveRequest, cache.Key, []byte) {
	t.Helper()
	opt := &OptionsJSON{Seed: 1}
	inst := instanceOwnedBy(t, nodes[0].clu.Nodes(), nodes[0].url, opt, start)
	req := SolveRequest{InstanceJSON: inst, Options: opt}
	resp := postJSON(t, nodes[0].url+"/v1/solve", req)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d: %s", resp.StatusCode, body)
	}
	return req, keyOf(t, inst, opt), body
}

// failoverServesWarm marks the owner down on nd and checks that nd then
// answers req with body from its replicated entry, without solving.
func failoverServesWarm(t *testing.T, nd *clusterNode, owner string, req SolveRequest, body []byte) {
	t.Helper()
	nd.clu.MarkDown(owner, context.DeadlineExceeded)
	resp := postJSON(t, nd.url+"/v1/solve", req)
	got := readBody(t, resp)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, body) {
		t.Fatalf("replica serve after owner down: status %d, bytes-equal %v", resp.StatusCode, bytes.Equal(got, body))
	}
	if n := metricValue(t, nd.url, "cluster_replica_served_total"); n != 1 {
		t.Errorf("replica_served = %d, want 1", n)
	}
	if n := metricValue(t, nd.url, "cluster_failovers_total"); n != 1 {
		t.Errorf("failovers = %d, want 1", n)
	}
	if n := metricValue(t, nd.url, "solver_runs_total"); n != 0 {
		t.Errorf("receiving node ran the solver %d times, want 0", n)
	}
}

// The /v1/store/ push is one verify-or-quarantine gate: a result file is
// accepted only if it frames correctly, names the path's key in its key
// section, and holds the canonical encoding of a solve response whose
// embedded key is the path's; anything else must pass store.Ingest. So a
// corrupt, misdirected or non-canonical push can never be served. Runs
// with Replicas=0 on the receiver — any clustered node must accept pushes
// even if it does not originate them.
func TestReplicaPushVerifiesBeforeServing(t *testing.T) {
	nodes := newElasticCluster(t, 2, 0, true)
	req, key, body := solveOwned(t, nodes, 16000)
	keyHex := hex.EncodeToString(key[:])
	other := nodes[1]

	wrong := key
	wrong[0] ^= 0xff
	wrongHex := hex.EncodeToString(wrong[:])
	for _, c := range []struct {
		what, fpHex string
		data        []byte
	}{
		{"bad-hex path", "zz", store.EncodeResult(key, body)},
		{"non-canonical body", keyHex, store.EncodeResult(key, append(append([]byte{}, body...), ' '))},
		{"key section differs from the path", keyHex, store.EncodeResult(wrong, body)},
		{"embedded key differs from the path", wrongHex, store.EncodeResult(wrong, body)},
		{"garbage bytes", keyHex, []byte("garbage")},
	} {
		if got := postStore(t, other.url, c.fpHex, c.data); got != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.what, got)
		}
	}
	if n := other.srv.cache.Len(); n != 0 {
		t.Fatalf("rejected pushes left %d cache entries", n)
	}
	if got := metricValue(t, other.url, "cluster_replica_failed_total"); got != 5 {
		t.Errorf("replica_failed = %d, want 5, one per rejected push", got)
	}

	// The genuine push is accepted — and serves a warm failover even on a
	// node that never replicates outbound.
	if got := postStore(t, other.url, keyHex, store.EncodeResult(key, body)); got != http.StatusNoContent {
		t.Fatalf("genuine push rejected: status %d", got)
	}
	if got := metricValue(t, other.url, "cluster_replica_ingested_total"); got != 1 {
		t.Errorf("replica_ingested = %d, want 1", got)
	}
	failoverServesWarm(t, other, nodes[0].url, req, body)
}

// A clustered node without a data directory still takes cache entries,
// which live in memory, but has nowhere to put a snapshot or a session
// record.
func TestReplicaPushMemoryOnlyReceiver(t *testing.T) {
	nodes := newElasticCluster(t, 2, 0, false)
	req, key, body := solveOwned(t, nodes, 16500)
	other := nodes[1]

	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fp, err := st.PutRelation(paperInstance(t).R1)
	if err != nil {
		t.Fatal(err)
	}
	snap, _, err := st.ReadFile(fp)
	if err != nil {
		t.Fatal(err)
	}
	if got := postStore(t, other.url, hex.EncodeToString(fp[:]), snap); got != http.StatusNotFound {
		t.Errorf("snapshot push to a memory-only node: status %d, want 404", got)
	}
	if got := postStore(t, other.url, hex.EncodeToString(key[:]), store.EncodeResult(key, body)); got != http.StatusNoContent {
		t.Fatalf("result push to a memory-only node: status %d, want 204", got)
	}
	failoverServesWarm(t, other, nodes[0].url, req, body)
}

// Outside a cluster nothing replicates, so a result push has no taker;
// and /v1/replica/, the cache entries' old push path, is gone.
func TestResultPushNeedsCluster(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Workers: 2, Store: st})
	key := keyOf(t, testInstance(0), &OptionsJSON{Seed: 1})
	keyHex := hex.EncodeToString(key[:])
	res := store.EncodeResult(key, []byte(`{"key":"`+keyHex+`"}`))
	if got := postStore(t, ts.URL, keyHex, res); got != http.StatusNotFound {
		t.Errorf("result push to a single node: status %d, want 404", got)
	}
	nodes := newTestCluster(t, 1)
	r, err := http.Post(nodes[0].url+"/v1/replica/"+keyHex, "application/json", bytes.NewReader(res))
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, r)
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("POST /v1/replica/: status %d, want 404", r.StatusCode)
	}
	if s.cache.Len() != 0 || nodes[0].srv.cache.Len() != 0 {
		t.Error("a refused push landed in a cache")
	}
}
