// Package cluster turns a set of linksynthd nodes into a shared-nothing
// sharded service. Each instance's content address (core.Fingerprint) maps
// to exactly one owning node via rendezvous hashing over the live node set;
// non-owners forward requests to the owner, so each node's cache is
// authoritative for its key range and the cluster as a whole solves every
// distinct instance at most once.
//
// The package is deliberately HTTP-shaped and service-agnostic: a Cluster
// knows node URLs, liveness, ownership and how to relay /v1/solve and
// /v1/batch calls, but nothing about solver internals. The serving layer
// (internal/service) decides when to route, when to fall back to local
// solving, and how to merge scattered batch results.
//
// Membership is dynamic: a node seeds its view from -peers and/or a
// -join announcement, and the member set — a last-writer-wins map of
// {url, epoch, left} entries with monotonically increasing epochs — is
// gossiped on the existing /healthz probe cycle, so every node converges
// on one view without consensus (see membership.go). Liveness is a
// separate, node-local observation layered on top: a background prober
// hits each member's /healthz on a fixed interval, and the forwarding
// path reports transport failures immediately (MarkDown), so a dead owner
// stops attracting traffic before the next probe tick. Correctness never
// depends on agreement, because results are content-addressed — any
// node's answer for a key is byte-identical.
package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Config assembles a Cluster.
type Config struct {
	// Self is this node's advertise URL (how peers reach it); required.
	Self string
	// Peers seeds the initial member set with node URLs (epoch 0). It may
	// or may not include Self; Self is filtered out either way. A node
	// joining an existing cluster may instead start with an empty seed
	// list and announce itself via JoinVia.
	Peers []string
	// ProbeInterval is the /healthz probing period (<= 0 selects 2s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe request (<= 0 selects 1s).
	ProbeTimeout time.Duration
	// PollInterval is the scatter-gather job polling period
	// (<= 0 selects 25ms).
	PollInterval time.Duration
	// Client is the HTTP client for forwarding and probing (nil selects a
	// dedicated client without an overall timeout: probes, gather polls
	// and replica pushes carry their own per-call deadlines, and a
	// forwarded solve must be allowed to run as long as the caller's
	// request context does).
	Client *http.Client
}

// PeerStatus is one peer's observed state, for /healthz and /metrics.
type PeerStatus struct {
	URL       string    `json:"url"`
	Up        bool      `json:"up"`
	Failures  int       `json:"failures,omitempty"` // consecutive probe failures
	LastError string    `json:"last_error,omitempty"`
	LastProbe time.Time `json:"-"`
}

// peer is one remote member: its gossiped membership state (epoch, left)
// plus this node's local liveness observations.
type peer struct {
	url   string
	epoch uint64 // membership epoch; highest epoch wins on merge
	left  bool   // tombstone: the member announced leave (kept for gossip)

	up  bool
	gen uint64 // liveness generation; bumped by MarkDown so a probe result
	// that was already in flight when a transport failure was
	// observed can never resurrect a dead peer (see ProbeNow)
	failures  int
	lastErr   string
	lastProbe time.Time
}

// Cluster is the node-local view of the shard group: this node's identity,
// every member's URL, membership epoch and up/down state, and the client
// used to reach them. Safe for concurrent use.
type Cluster struct {
	self          string
	client        *http.Client
	probeInterval time.Duration
	probeTimeout  time.Duration
	pollInterval  time.Duration

	mu        sync.Mutex
	peers     map[string]*peer
	selfEpoch uint64 // this node's own membership epoch
	selfLeft  bool   // set by Leave(self): drain mode, self owns nothing

	// version stamps the (membership x liveness) view; any change bumps
	// it, invalidating the cached candidate slices in view.go so the
	// rendezvous ring recomputes incrementally — only on change, and a
	// change only moves the changed node's key ranges.
	version atomic.Uint64
	ring    atomic.Pointer[ringView]

	changed chan struct{} // coalescing membership-change notifications

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup

	probes      atomic.Uint64
	probesStale atomic.Uint64 // probe results discarded by the gen guard
	transitions atomic.Uint64
}

// New builds a Cluster from the seed list. Every peer starts optimistically
// up — a cold cluster routes immediately and the first probe (or the first
// failed forward) corrects the view. Call Start to begin background
// probing, and Close to stop it.
func New(cfg Config) (*Cluster, error) {
	self, err := normalizeURL(cfg.Self)
	if err != nil {
		return nil, fmt.Errorf("cluster: advertise URL: %w", err)
	}
	c := &Cluster{
		self:          self,
		client:        cfg.Client,
		probeInterval: cfg.ProbeInterval,
		probeTimeout:  cfg.ProbeTimeout,
		pollInterval:  cfg.PollInterval,
		peers:         make(map[string]*peer),
		changed:       make(chan struct{}, 1),
		stop:          make(chan struct{}),
	}
	if c.probeInterval <= 0 {
		c.probeInterval = 2 * time.Second
	}
	if c.probeTimeout <= 0 {
		c.probeTimeout = time.Second
	}
	if c.pollInterval <= 0 {
		c.pollInterval = 25 * time.Millisecond
	}
	if c.client == nil {
		c.client = &http.Client{}
	}
	for _, raw := range cfg.Peers {
		u, err := normalizeURL(raw)
		if err != nil {
			return nil, fmt.Errorf("cluster: peer %q: %w", raw, err)
		}
		if u == self {
			continue
		}
		c.peers[u] = &peer{url: u, up: true}
	}
	return c, nil
}

// normalizeURL canonicalizes a node URL so the same node spelled two ways
// ("localhost:8081/" vs "http://localhost:8081") hashes identically on
// every cluster member.
func normalizeURL(raw string) (string, error) {
	u := strings.TrimRight(strings.TrimSpace(raw), "/")
	if u == "" {
		return "", fmt.Errorf("empty URL")
	}
	if !strings.Contains(u, "://") {
		u = "http://" + u
	}
	return u, nil
}

// Self returns this node's advertise URL.
func (c *Cluster) Self() string { return c.self }

// Nodes returns every live (non-left) member URL (self included), sorted.
func (c *Cluster) Nodes() []string {
	return c.view().members
}

// UpNodes returns the candidate owner set: self plus every live member
// currently believed up, sorted. Callers must not mutate the returned
// slice — it is shared with the cached ring view.
func (c *Cluster) UpNodes() []string {
	return c.view().up
}

// Snapshot returns every remote member's observed state, sorted by URL.
// Tombstoned (left) members are omitted — they are gossip bookkeeping,
// not peers.
func (c *Cluster) Snapshot() []PeerStatus {
	c.mu.Lock()
	out := make([]PeerStatus, 0, len(c.peers))
	for _, p := range c.peers {
		if p.left {
			continue
		}
		out = append(out, PeerStatus{
			URL: p.url, Up: p.up, Failures: p.failures,
			LastError: p.lastErr, LastProbe: p.lastProbe,
		})
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// Probes returns how many individual peer probes have run.
func (c *Cluster) Probes() uint64 { return c.probes.Load() }

// StaleProbes returns how many probe results were discarded because a
// MarkDown landed while the probe was in flight.
func (c *Cluster) StaleProbes() uint64 { return c.probesStale.Load() }

// Transitions returns how many up<->down state changes have been observed.
func (c *Cluster) Transitions() uint64 { return c.transitions.Load() }

// IsUp reports whether url names a live member currently believed up
// (self is always up to itself).
func (c *Cluster) IsUp(url string) bool {
	if url == c.self {
		return !c.isSelfLeft()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.peers[url]
	return ok && !p.left && p.up
}

func (c *Cluster) isSelfLeft() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.selfLeft
}

// observeTransportErr reports a failed request to a peer, marking it down
// unless the failure was the caller's own cancellation — a client that
// hangs up mid-forward (or a deleted parent job aborting its polls) says
// nothing about the peer's health, and must not evict a healthy owner
// from the ring — or a reply past its size limit, which the peer did
// send.
func (c *Cluster) observeTransportErr(url string, err error) {
	if errors.Is(err, context.Canceled) || errors.Is(err, errTooLarge) {
		return
	}
	c.MarkDown(url, err)
}

// MarkDown records an observed failure reaching a peer (e.g. a forward
// that died in transport), taking it out of the owner set immediately
// instead of waiting for the next probe tick. It bumps the peer's
// liveness generation, so any probe that was already in flight when the
// failure was observed reports against a stale generation and is
// discarded — a slow success response can never flip a freshly observed
// dead peer back to up. Probes started after this bring it back.
func (c *Cluster) MarkDown(url string, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.peers[url]
	if !ok {
		return
	}
	p.gen++
	if p.up {
		p.up = false
		c.transitions.Add(1)
		c.version.Add(1)
	}
	p.failures++
	if err != nil {
		p.lastErr = err.Error()
	}
}

// Start launches the background probe loop. Safe to skip in tests that
// drive ProbeNow directly.
func (c *Cluster) Start() {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		t := time.NewTicker(c.probeInterval)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.ProbeNow(context.Background())
			}
		}
	}()
}

// Close stops background probing. It does not touch in-flight forwards.
func (c *Cluster) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
}

// ProbeNow probes every live member's /healthz once, concurrently, and
// updates up/down state: one successful probe marks a peer up, one failed
// probe marks it down (membership is small and probing is cheap, so no
// hysteresis — a flapping peer costs only misrouted-then-corrected
// forwards, never wrong results). Each probe captures the peer's liveness
// generation before the request leaves; if a MarkDown bumped the
// generation while the probe was on the wire, the result is stale — it
// observed the peer before the failure — and is discarded. Probe
// responses carry the peer's member view, which is merged (gossip), so
// joins and leaves spread one probe cycle per hop.
func (c *Cluster) ProbeNow(ctx context.Context) {
	type target struct {
		url string
		gen uint64
	}
	c.mu.Lock()
	targets := make([]target, 0, len(c.peers))
	//lint:ordered probes run concurrently and update per-peer state; launch order is immaterial
	for u, p := range c.peers {
		if p.left {
			continue
		}
		targets = append(targets, target{url: u, gen: p.gen})
	}
	c.mu.Unlock()

	var wg sync.WaitGroup
	for _, tg := range targets {
		wg.Add(1)
		go func(tg target) {
			defer wg.Done()
			members, err := c.probeOne(ctx, tg.url)
			c.probes.Add(1)
			c.mu.Lock()
			p, ok := c.peers[tg.url]
			if !ok || p.left {
				c.mu.Unlock()
				return
			}
			if p.gen != tg.gen {
				// A MarkDown (or a competing probe) advanced the peer's
				// liveness generation while this probe was in flight: the
				// result predates the observed failure. Discard it.
				c.probesStale.Add(1)
				c.mu.Unlock()
				return
			}
			p.gen++
			p.lastProbe = time.Now()
			if err == nil {
				if !p.up {
					c.transitions.Add(1)
					c.version.Add(1)
				}
				p.up = true
				p.failures = 0
				p.lastErr = ""
			} else {
				if p.up {
					c.transitions.Add(1)
					c.version.Add(1)
				}
				p.up = false
				p.failures++
				p.lastErr = err.Error()
			}
			c.mu.Unlock()
			if err == nil && len(members) > 0 {
				// Gossip: adopt whatever newer membership facts the peer
				// holds. Epoch-guarded, so replaying an old view is harmless.
				c.Merge(members)
			}
		}(tg)
	}
	wg.Wait()
}

// probeHealthz is the subset of a /healthz body the prober reads: the
// peer's gossiped member view. Kept structurally in sync with the
// service's /healthz JSON by the cluster tests.
type probeHealthz struct {
	Members []Member `json:"members"`
}

func (c *Cluster) probeOne(ctx context.Context, url string) ([]Member, error) {
	ctx, cancel := context.WithTimeout(ctx, c.probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, err
	}
	var hz probeHealthz
	if jerr := json.Unmarshal(body, &hz); jerr != nil {
		// A healthy 200 with an unexpected body still proves liveness;
		// only the gossip payload is lost.
		return nil, nil
	}
	return hz.Members, nil
}
