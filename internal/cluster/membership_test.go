package cluster

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"
)

// The S-race this guards: a probe reads /healthz, the response crawls back
// over a congested link, and while it is in flight a forward to the same
// peer dies in transport — the peer is genuinely down and MarkDown said
// so. Without the per-peer liveness generation, the slow success lands
// last and flips the dead peer back up, and the next forward to it fails
// too. The generation captured at probe launch detects the interleaving
// and discards the stale result. Run under -race (CI does), the test also
// proves the two paths' state updates are properly synchronized.
func TestSlowProbeCannotResurrectDeadPeer(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release // the probe's GET is now in flight while MarkDown lands
		w.Write([]byte(`{"status":"ok"}`))
	}))
	defer ts.Close()

	c, err := New(Config{Self: "http://self:1", Peers: []string{ts.URL}, ProbeTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	probed := make(chan struct{})
	go func() {
		c.ProbeNow(context.Background())
		close(probed)
	}()
	<-entered
	c.MarkDown(ts.URL, io.ErrUnexpectedEOF) // observed transport failure mid-probe
	close(release)
	<-probed

	if c.IsUp(ts.URL) {
		t.Fatal("stale probe success resurrected a peer marked down mid-flight")
	}
	if got := c.StaleProbes(); got != 1 {
		t.Errorf("StaleProbes = %d, want 1", got)
	}
	// A probe launched after the MarkDown observes the peer at its current
	// generation and legitimately brings it back.
	go func() { <-entered }()
	c.ProbeNow(context.Background())
	if !c.IsUp(ts.URL) {
		t.Fatal("fresh probe did not restore the recovered peer")
	}
}

func TestMergeIsLastWriterWinsWithTombstonePriority(t *testing.T) {
	c, err := New(Config{Self: "http://a:1"})
	if err != nil {
		t.Fatal(err)
	}
	// Learn a member via gossip: starts up.
	if !c.Merge([]Member{{URL: "http://b:1", Epoch: 1}}) {
		t.Fatal("new member did not register as a change")
	}
	if !c.IsUp("http://b:1") {
		t.Error("gossip-learned member should start optimistically up")
	}
	// A stale view (lower epoch) changes nothing.
	if c.Merge([]Member{{URL: "http://b:1", Epoch: 0, Left: true}}) {
		t.Error("stale tombstone applied")
	}
	// Equal epoch: the tombstone wins (leaving is the terminal intent).
	c.Merge([]Member{{URL: "http://b:1", Epoch: 1, Left: true}})
	if got := c.Nodes(); len(got) != 1 {
		t.Errorf("tombstoned member still live: %v", got)
	}
	// A newer epoch un-tombstones (rejoin) with a fresh liveness slate.
	c.Merge([]Member{{URL: "http://b:1", Epoch: 2}})
	if !c.IsUp("http://b:1") {
		t.Error("rejoined member should be up")
	}
	// Replaying every old fact is a no-op: merge is idempotent.
	if c.Merge([]Member{{URL: "http://b:1", Epoch: 1, Left: true}, {URL: "http://b:1", Epoch: 2}}) {
		t.Error("replayed history reported a change")
	}
}

func TestSelfTombstoneIsRebutted(t *testing.T) {
	c, err := New(Config{Self: "http://a:1"})
	if err != nil {
		t.Fatal(err)
	}
	// A peer's view declares us dead at an epoch ahead of ours.
	c.Merge([]Member{{URL: "http://a:1", Epoch: 5, Left: true}})
	for _, m := range c.Members() {
		if m.URL == "http://a:1" {
			if m.Left {
				t.Fatal("node accepted its own tombstone while alive")
			}
			if m.Epoch <= 5 {
				t.Errorf("rebuttal epoch %d does not outrank the tombstone", m.Epoch)
			}
		}
	}
}

// A gossiped fact at the top of the epoch range is ignored: a rebuttal or
// a join stamps one past the highest epoch seen, which would wrap to 0 and
// sit below the facts that stamp must outrank.
func TestMergeIgnoresEpochsPastTheBound(t *testing.T) {
	c, err := New(Config{Self: "http://a:1"})
	if err != nil {
		t.Fatal(err)
	}
	c.Merge([]Member{
		{URL: "http://a:1", Epoch: math.MaxUint64, Left: true},
		{URL: "http://b:1", Epoch: math.MaxUint64},
		{URL: "http://c:1", Epoch: maxGossipEpoch - 1, Left: true},
	})
	if _, err := c.Join("http://d:1"); err != nil {
		t.Fatal(err)
	}
	for _, m := range c.Members() {
		switch {
		case m.Epoch >= 1<<63:
			t.Errorf("%s at epoch %d, at or past 2^63", m.URL, m.Epoch)
		case m.URL == "http://a:1" && m.Left:
			t.Error("self took a tombstone past the bound")
		case m.URL == "http://b:1":
			t.Error("learned a member from a fact past the bound")
		case m.URL == "http://d:1" && m.Epoch <= maxGossipEpoch-1:
			t.Errorf("joined member stamped at epoch %d, not above the highest seen", m.Epoch)
		}
	}

	// The highest tombstone of self that is accepted is rebutted below 2^63.
	c, err = New(Config{Self: "http://a:1"})
	if err != nil {
		t.Fatal(err)
	}
	c.Merge([]Member{{URL: "http://a:1", Epoch: maxGossipEpoch - 1, Left: true}})
	if m := c.Members()[0]; m.Left || m.Epoch != maxGossipEpoch {
		t.Errorf("self after the rebuttal: %+v, want live at epoch %d", m, uint64(maxGossipEpoch))
	}
}

// FuzzMemberMerge feeds any bytes to the gossip view a /healthz probe
// reads. A merge must not panic and must keep every epoch below 2^63;
// merging the same view again changes nothing; and a member joined
// afterwards is stamped above every epoch in the view.
func FuzzMemberMerge(f *testing.F) {
	for _, seed := range []string{
		`{"members":[{"url":"http://a:1","epoch":3},{"url":"http://b:1","epoch":2,"left":true}]}`,
		`{"members":[{"url":"http://self:1","epoch":5,"left":true},{"url":"http://self:1","epoch":9}]}`,
		`{"members":[{"url":"http://self:1","epoch":18446744073709551615,"left":true},{"url":"http://d:1","epoch":9223372036854775806}]}`,
		`{"members":[{"url":"b:1","epoch":1},{"url":"HTTP://B:1/","epoch":1,"left":true},{"url":"","epoch":0}]}`,
		`{"status":"ok"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var hz probeHealthz
		if json.Unmarshal(body, &hz) != nil {
			return
		}
		c, err := New(Config{Self: "http://self:1", Peers: []string{"http://a:1"}})
		if err != nil {
			t.Fatal(err)
		}
		c.Merge(hz.Members)
		top, fresh := uint64(0), true
		for _, m := range c.Members() {
			if m.Epoch >= 1<<63 {
				t.Fatalf("%s at epoch %d, at or past 2^63", m.URL, m.Epoch)
			}
			top = max(top, m.Epoch)
			fresh = fresh && !(m.URL == "http://z:1" && !m.Left)
		}
		if c.Merge(hz.Members) {
			t.Fatal("merging the same view twice reported a change")
		}
		if !fresh {
			return
		}
		view, err := c.Join("http://z:1")
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range view {
			if m.URL == "http://z:1" && m.Epoch <= top {
				t.Fatalf("joined member stamped at epoch %d, not above %d", m.Epoch, top)
			}
		}
	})
}

// gossipNode is a cluster member with just enough HTTP surface for the
// membership tests: /healthz carrying the member view (the gossip
// payload) and the join/leave announcement endpoints, mirroring the
// service's wiring.
func gossipNode(t *testing.T) (*Cluster, *httptest.Server) {
	t.Helper()
	var c *Cluster
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz":
			json.NewEncoder(w).Encode(map[string]any{"status": "ok", "members": c.Members()})
		case "/v1/cluster/join", "/v1/cluster/leave":
			var jw joinWire
			if err := json.NewDecoder(r.Body).Decode(&jw); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			if r.URL.Path == "/v1/cluster/join" {
				members, err := c.Join(jw.URL)
				if err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
				json.NewEncoder(w).Encode(joinWire{URL: c.Self(), Members: members})
				return
			}
			c.Leave(jw.URL)
			json.NewEncoder(w).Encode(joinWire{URL: c.Self()})
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(ts.Close)
	var err error
	c, err = New(Config{Self: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	return c, ts
}

func memberURLs(c *Cluster) []string {
	out := c.Nodes()
	sort.Strings(out)
	return out
}

// TestJoinGossipsAcrossTheCluster drives the full elastic-membership
// cycle without the service layer: C joins via A, learns B from A's
// member view, and B learns C from its next probe of A — one gossip hop,
// no restarts. Then C leaves and every survivor converges on its absence.
func TestJoinGossipsAcrossTheCluster(t *testing.T) {
	a, _ := gossipNode(t)
	b, _ := gossipNode(t)
	cc, _ := gossipNode(t)

	// A and B seeded with each other (the static bootstrap pair).
	a.Merge([]Member{{URL: b.Self(), Epoch: 0}})
	b.Merge([]Member{{URL: a.Self(), Epoch: 0}})

	// C announces itself to A and adopts A's view — which includes B.
	if err := cc.JoinVia(context.Background(), a.Self()); err != nil {
		t.Fatal(err)
	}
	if got := memberURLs(cc); len(got) != 3 {
		t.Fatalf("joiner's view = %v, want all three members", got)
	}
	if got := memberURLs(a); len(got) != 3 {
		t.Fatalf("seed's view = %v, want all three members", got)
	}
	// B hears about C on its next probe of A (the gossip hop).
	b.ProbeNow(context.Background())
	if got := memberURLs(b); len(got) != 3 {
		t.Fatalf("B's view after one probe cycle = %v, want all three members", got)
	}
	// All three agree, and the changed signal fired for the watchers.
	select {
	case <-b.Changed():
	default:
		t.Error("membership change did not signal Changed()")
	}

	// C leaves: the tombstone lands on A and B immediately via the
	// announcement, not eventually via probe timeouts.
	cc.AnnounceLeave(context.Background())
	for name, n := range map[string]*Cluster{"A": a, "B": b} {
		if got := memberURLs(n); len(got) != 2 {
			t.Fatalf("%s still sees the departed member: %v", name, got)
		}
	}
	// The departed node itself is draining: it owns nothing.
	if got := cc.UpNodes(); len(got) != 2 {
		t.Fatalf("draining node still in its own candidate set: %v", got)
	}
}

func TestJoinViaRetriesThenFails(t *testing.T) {
	c, err := New(Config{Self: "http://self:1"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := c.JoinVia(ctx, "http://127.0.0.1:1"); err == nil {
		t.Fatal("join via an unreachable seed succeeded")
	}
	if err := c.JoinVia(ctx, c.Self()); err == nil {
		t.Fatal("join via self accepted")
	}
}
