package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// The scatter-gather half of the cluster: a batch job that lands on one
// node is split by owner, each remote group travels as a hop-guarded
// sub-batch to its owning node, and the submitting node polls the sub-jobs
// to completion and merges their results under the parent job id. The
// split itself (SplitByOwner) is pure; the serving layer owns the merge
// and the fall-back-to-local policy when a sub-batch cannot be placed or
// its owner dies mid-job.

// Group is one owner's slice of a scattered batch: the indices (into the
// original instance list) this owner is responsible for.
type Group struct {
	Owner   string
	Self    bool
	Indices []int
}

// SplitByOwner partitions batch instance keys across the currently-up
// nodes. The local group (if any) is first; remote groups follow in sorted
// owner order, so the scatter plan is deterministic for tests and logs.
func (c *Cluster) SplitByOwner(keys [][32]byte) []Group {
	nodes := c.UpNodes()
	byOwner := make(map[string][]int)
	for i, k := range keys {
		o := Owner(k, nodes)
		byOwner[o] = append(byOwner[o], i)
	}
	out := make([]Group, 0, len(byOwner))
	if idxs, ok := byOwner[c.self]; ok {
		out = append(out, Group{Owner: c.self, Self: true, Indices: idxs})
		delete(byOwner, c.self)
	}
	for _, n := range nodes {
		if idxs, ok := byOwner[n]; ok {
			out = append(out, Group{Owner: n, Indices: idxs})
		}
	}
	return out
}

// gatherCallTimeout bounds one submit or poll request. The shared client
// has no overall timeout (forwarded solves may legitimately run long), but
// a sub-job submit/poll is a small control-plane exchange: a peer that
// cannot answer one inside this window is treated as dead and the group
// falls back to local solving. Job execution time is unaffected — WaitJob
// issues many short polls, not one long request.
const gatherCallTimeout = 15 * time.Second

// jobWire is the subset of the service's job-status body the gatherer
// needs. Kept structurally in sync with service.jobStatusJSON by the
// cluster tests.
type jobWire struct {
	ID      string            `json:"id"`
	Status  string            `json:"status"`
	Results []json.RawMessage `json:"results,omitempty"`
	Error   string            `json:"error,omitempty"`
}

// SubmitBatch posts a sub-batch body to the owning node with the hop guard
// set and returns the remote job id. Transport failures mark the owner
// down; HTTP-level rejections (full queue, bad request) are returned as
// errors without touching liveness — a node that answers is up.
func (c *Cluster) SubmitBatch(ctx context.Context, owner string, body []byte) (string, error) {
	ctx, cancel := context.WithTimeout(ctx, gatherCallTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, owner+"/v1/batch", bytes.NewReader(body))
	if err != nil {
		return "", fmt.Errorf("cluster: submit batch to %s: %w", owner, err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(HopHeader, "1")
	setTraceHeader(ctx, req)
	resp, err := c.client.Do(req)
	if err != nil {
		c.observeTransportErr(owner, err)
		return "", fmt.Errorf("cluster: submit batch to %s: %w", owner, err)
	}
	defer resp.Body.Close()
	b, err := readBody(resp.Body, maxControlBody)
	if err != nil {
		c.observeTransportErr(owner, err)
		return "", fmt.Errorf("cluster: submit batch to %s: read response: %w", owner, err)
	}
	var jw jobWire
	if err := json.Unmarshal(b, &jw); err != nil {
		return "", fmt.Errorf("cluster: submit batch to %s: bad response (status %d): %w", owner, resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusAccepted || jw.ID == "" {
		msg := jw.Error
		if msg == "" {
			msg = string(b)
		}
		return "", fmt.Errorf("cluster: submit batch to %s: status %d: %s", owner, resp.StatusCode, msg)
	}
	return jw.ID, nil
}

// WaitJob polls a remote sub-job until it finishes and returns its
// per-instance results. Any poll failure — transport death (owner marked
// down), a non-200 status, a canceled remote job — fails the wait; the
// caller falls back to solving the group locally. Respects ctx for parent
// job cancellation.
func (c *Cluster) WaitJob(ctx context.Context, owner, id string) ([]json.RawMessage, error) {
	t := time.NewTicker(c.pollInterval)
	defer t.Stop()
	for {
		jw, err := c.pollJob(ctx, owner, id)
		if err != nil {
			return nil, err
		}
		switch jw.Status {
		case "done":
			return jw.Results, nil
		case "canceled":
			return nil, fmt.Errorf("cluster: job %s on %s was canceled remotely", id, owner)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-t.C:
		}
	}
}

func (c *Cluster) pollJob(ctx context.Context, owner, id string) (*jobWire, error) {
	ctx, cancel := context.WithTimeout(ctx, gatherCallTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, owner+"/v1/jobs/"+id, nil)
	if err != nil {
		return nil, fmt.Errorf("cluster: poll job %s on %s: %w", id, owner, err)
	}
	setTraceHeader(ctx, req)
	resp, err := c.client.Do(req)
	if err != nil {
		c.observeTransportErr(owner, err)
		return nil, fmt.Errorf("cluster: poll job %s on %s: %w", id, owner, err)
	}
	defer resp.Body.Close()
	b, err := readBody(resp.Body, maxResultBody)
	if err != nil {
		c.observeTransportErr(owner, err)
		return nil, fmt.Errorf("cluster: poll job %s on %s: read response: %w", id, owner, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: poll job %s on %s: status %d: %s", id, owner, resp.StatusCode, b)
	}
	var jw jobWire
	if err := json.Unmarshal(b, &jw); err != nil {
		return nil, fmt.Errorf("cluster: poll job %s on %s: decode: %w", id, owner, err)
	}
	return &jw, nil
}

// CancelJob best-effort cancels a remote sub-job (the parent was deleted
// or gave up on this owner). Failures are ignored: the remote job's
// results are content-addressed, so an orphaned run wastes work but can
// never corrupt state.
func (c *Cluster) CancelJob(owner, id string) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, owner+"/v1/jobs/"+id, nil)
	if err != nil {
		return
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return
	}
	resp.Body.Close()
}
