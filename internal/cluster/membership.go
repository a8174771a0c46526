package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"
)

// Member is one gossiped membership fact: a node URL, the epoch at which
// its state last changed, and whether that state is "left" (a tombstone).
// The member map is a last-writer-wins CRDT keyed by URL: higher epoch
// wins, and at equal epochs a tombstone wins (leaving is the terminal
// intent). Epochs are per-cluster monotonic — every join or leave stamps
// max(observed)+1 — so replaying an old view through gossip is a no-op
// and all nodes converge on one member set without consensus.
type Member struct {
	URL   string `json:"url"`
	Epoch uint64 `json:"epoch"`
	Left  bool   `json:"left,omitempty"`
}

// Members returns the full gossip state — every known membership fact,
// tombstones included, self included — sorted by URL. This is what
// /healthz carries between nodes; Nodes() is the live subset.
func (c *Cluster) Members() []Member {
	c.mu.Lock()
	out := make([]Member, 0, len(c.peers)+1)
	out = append(out, Member{URL: c.self, Epoch: c.selfEpoch, Left: c.selfLeft})
	for _, p := range c.peers {
		out = append(out, Member{URL: p.url, Epoch: p.epoch, Left: p.left})
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// Epoch returns the highest membership epoch this node has observed —
// a logical clock over membership churn, exposed for /metrics.
func (c *Cluster) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.maxEpochLocked()
}

func (c *Cluster) maxEpochLocked() uint64 {
	max := c.selfEpoch
	//lint:ordered max over epochs is the same whichever peer is visited first
	for _, p := range c.peers {
		if p.epoch > max {
			max = p.epoch
		}
	}
	return max
}

// maxGossipEpoch bounds the epochs Merge accepts. Joins, leaves and
// rebuttals stamp one past the highest epoch seen, which a fact near 2^64
// would wrap to 0; below this bound a rebuttal stays below 2^63.
const maxGossipEpoch = 1<<63 - 1

// Merge folds a remote member view into the local one (LWW by epoch,
// tombstone wins ties) and returns whether anything changed. Newly
// learned members start optimistically up, exactly like seed peers. If
// the remote view tombstones this node at an epoch >= our own — someone
// declared us dead while we are demonstrably alive — we re-announce
// ourselves at a higher epoch, and the next gossip cycle spreads the
// correction. Facts at or above maxGossipEpoch are ignored.
func (c *Cluster) Merge(members []Member) bool {
	c.mu.Lock()
	changed := false
	for _, m := range members {
		u, err := normalizeURL(m.URL)
		if err != nil || m.Epoch >= maxGossipEpoch {
			continue
		}
		if u == c.self {
			if m.Left && !c.selfLeft && m.Epoch >= c.selfEpoch {
				c.selfEpoch = m.Epoch + 1 // rebut the tombstone
				changed = true
			} else if !m.Left && m.Epoch > c.selfEpoch {
				c.selfEpoch = m.Epoch
			}
			continue
		}
		p, ok := c.peers[u]
		if !ok {
			c.peers[u] = &peer{url: u, epoch: m.Epoch, left: m.Left, up: !m.Left}
			changed = true
			continue
		}
		if m.Epoch < p.epoch || (m.Epoch == p.epoch && (p.left || !m.Left)) {
			continue // stale, or nothing new
		}
		if p.left != m.Left {
			changed = true
			if !m.Left {
				// A re-joining member: fresh liveness slate.
				p.up = true
				p.failures = 0
				p.lastErr = ""
				p.gen++
			}
		}
		p.epoch = m.Epoch
		p.left = m.Left
	}
	if changed {
		c.version.Add(1)
	}
	c.mu.Unlock()
	if changed {
		c.notifyChanged()
	}
	return changed
}

// Join records that url is (re)joining the cluster, stamping it with a
// fresh epoch so the fact outranks any previous leave. It returns the
// full member view for the joiner to adopt. Called by the service when
// handling POST /v1/cluster/join.
func (c *Cluster) Join(url string) ([]Member, error) {
	u, err := normalizeURL(url)
	if err != nil {
		return nil, fmt.Errorf("cluster: join %q: %w", url, err)
	}
	c.mu.Lock()
	if u == c.self {
		c.mu.Unlock()
		return c.Members(), nil
	}
	next := c.maxEpochLocked() + 1
	p, ok := c.peers[u]
	changed := false
	if !ok {
		c.peers[u] = &peer{url: u, epoch: next, up: true}
		changed = true
	} else if p.left {
		p.left = false
		p.epoch = next
		p.up = true
		p.failures = 0
		p.lastErr = ""
		p.gen++
		changed = true
	}
	if changed {
		c.version.Add(1)
	}
	c.mu.Unlock()
	if changed {
		c.notifyChanged()
	}
	return c.Members(), nil
}

// Leave tombstones url at a fresh epoch. Leaving is advisory — a node
// that leaves and later rejoins gets a newer epoch via Join — and a
// tombstoned member stops being probed, owned against, or replicated to.
// url may be this node itself (graceful shutdown): self switches to
// drain mode and is excluded from its own candidate views, while gossip
// keeps spreading the tombstone to peers still probing us.
func (c *Cluster) Leave(url string) error {
	u, err := normalizeURL(url)
	if err != nil {
		return fmt.Errorf("cluster: leave %q: %w", url, err)
	}
	c.mu.Lock()
	changed := false
	if u == c.self {
		if !c.selfLeft {
			c.selfLeft = true
			c.selfEpoch = c.maxEpochLocked() + 1
			changed = true
		}
	} else if p, ok := c.peers[u]; ok && !p.left {
		p.left = true
		p.epoch = c.maxEpochLocked() + 1
		changed = true
	}
	if changed {
		c.version.Add(1)
	}
	c.mu.Unlock()
	if changed {
		c.notifyChanged()
	}
	return nil
}

// joinWire is the /v1/cluster/join request and response body.
type joinWire struct {
	URL     string   `json:"url"`
	Members []Member `json:"members,omitempty"`
}

// JoinVia announces this node to a seed member (POST /v1/cluster/join)
// and merges the member view the seed returns, with bounded retries —
// the seed may itself be mid-restart. After JoinVia returns, this node
// knows the cluster and the seed knows this node; gossip spreads the
// rest within a probe cycle per hop.
func (c *Cluster) JoinVia(ctx context.Context, seed string) error {
	su, err := normalizeURL(seed)
	if err != nil {
		return fmt.Errorf("cluster: join seed %q: %w", seed, err)
	}
	if su == c.self {
		return fmt.Errorf("cluster: cannot join via self")
	}
	body, err := json.Marshal(joinWire{URL: c.self})
	if err != nil {
		return err
	}
	var lastErr error
	for attempt := 0; attempt < 4; attempt++ {
		if attempt > 0 {
			if err := Backoff(ctx, attempt-1); err != nil {
				return err
			}
		}
		members, err := c.postJoin(ctx, su, body)
		if err != nil {
			lastErr = err
			continue
		}
		c.Merge(members)
		return nil
	}
	return fmt.Errorf("cluster: join via %s: %w", su, lastErr)
}

func (c *Cluster) postJoin(ctx context.Context, seed string, body []byte) ([]Member, error) {
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		seed+"/v1/cluster/join", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("join: status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var jw joinWire
	if err := json.Unmarshal(raw, &jw); err != nil {
		return nil, fmt.Errorf("join: bad response: %w", err)
	}
	return jw.Members, nil
}

// AnnounceLeave tombstones this node locally and best-effort pushes the
// tombstone to every up peer via their /v1/cluster/leave endpoint, so
// the ring moves ownership before this process exits rather than waiting
// for probes to time out. Errors are ignored per peer — gossip is the
// backstop.
func (c *Cluster) AnnounceLeave(ctx context.Context) {
	c.Leave(c.self)
	body, err := json.Marshal(joinWire{URL: c.self})
	if err != nil {
		return
	}
	for _, u := range c.peerURLs() {
		ctx2, cancel := context.WithTimeout(ctx, 2*time.Second)
		req, err := http.NewRequestWithContext(ctx2, http.MethodPost,
			u+"/v1/cluster/leave", bytes.NewReader(body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
			if resp, err := c.client.Do(req); err == nil {
				io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
				resp.Body.Close()
			}
		}
		cancel()
	}
}

// peerURLs returns every live remote member, up or down, sorted.
func (c *Cluster) peerURLs() []string {
	c.mu.Lock()
	out := make([]string, 0, len(c.peers))
	for _, p := range c.peers {
		if !p.left {
			out = append(out, p.url)
		}
	}
	c.mu.Unlock()
	sort.Strings(out)
	return out
}

// notifyChanged signals membership-change watchers (coalescing: a burst
// of changes may deliver one signal, which is fine — watchers re-read
// the whole view).
func (c *Cluster) notifyChanged() {
	select {
	case c.changed <- struct{}{}:
	default:
	}
}

// Changed returns a channel that receives a (coalesced) signal whenever
// the member set changes — join, leave, or gossip-learned churn. The
// service's migration watcher selects on it to move parked sessions when
// ownership shifts.
func (c *Cluster) Changed() <-chan struct{} { return c.changed }
