package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/obsv"
)

// HopHeader marks a request that already crossed one node boundary. A node
// receiving it must answer locally, never re-forward: with every member
// routing by the same hash the first hop always lands on the owner, and if
// two nodes' liveness views briefly disagree the guard turns a potential
// forwarding loop into one extra local solve — degraded, never wrong.
const HopHeader = "X-Linksynth-Hop"

// ForwardResult is the owner's verbatim answer to a relayed request.
type ForwardResult struct {
	StatusCode int
	Header     http.Header
	Body       []byte
}

// ForwardSolve relays a /v1/solve request body to the owning node and
// returns its response, whatever the status — the caller decides which
// statuses to pass through and which to fall back on. query, when
// non-empty, is the raw query string (without "?") to append — the edge
// passes the client's ?explain=1 through so the owner, which does the
// actual solving, measures the report. A transport-level failure (connect
// refused, timeout, mid-body death) marks the owner down and returns an
// error; the caller should then solve locally.
func (c *Cluster) ForwardSolve(ctx context.Context, owner, contentType, query string, body []byte) (*ForwardResult, error) {
	url := owner + "/v1/solve"
	if query != "" {
		url += "?" + query
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("cluster: forward to %s: %w", owner, err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	req.Header.Set(HopHeader, "1")
	setTraceHeader(ctx, req)
	resp, err := c.client.Do(req)
	if err != nil {
		c.observeTransportErr(owner, err)
		return nil, fmt.Errorf("cluster: forward to %s: %w", owner, err)
	}
	defer resp.Body.Close()
	b, err := readBody(resp.Body, maxResultBody)
	if err != nil {
		c.observeTransportErr(owner, err)
		return nil, fmt.Errorf("cluster: forward to %s: read response: %w", owner, err)
	}
	return &ForwardResult{StatusCode: resp.StatusCode, Header: resp.Header, Body: b}, nil
}

// Limits on a peer's reply. A reply past its limit is an error, never
// truncated: ForwardSolve's caller relays the body verbatim.
const (
	// maxResultBody bounds a reply that carries results or durable state:
	// a forwarded solve's response, a finished sub-job's results, or one
	// store file. Instances this large should not move between nodes.
	maxResultBody = 1 << 30
	// maxControlBody bounds a batch submit's reply: a job id and status,
	// or an error message, well under a KiB. It matches the caps on the
	// health probe's and the join's replies.
	maxControlBody = 1 << 20
	// maxPushReply bounds the reply to a store push: nothing on success,
	// an error message otherwise.
	maxPushReply = 4 << 10
	// maxDebugBody bounds one telemetry fetch: a /metrics?format=json
	// reply (about 9 KiB per node) or one trace's flight records (a few
	// KiB each, plus about 200 bytes per constraint when the trace
	// carries an explain report). 16 MiB covers explain reports over some
	// 80,000 constraints.
	maxDebugBody = 16 << 20
)

// errTooLarge marks a peer reply longer than its limit.
var errTooLarge = errors.New("reply exceeds size limit")

// readBody reads a peer's whole reply, or fails once it runs past limit
// bytes; it reads at most limit+1.
func readBody(r io.Reader, limit int64) ([]byte, error) {
	b, err := io.ReadAll(io.LimitReader(r, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(b)) > limit {
		return nil, fmt.Errorf("%w of %d bytes", errTooLarge, limit)
	}
	return b, nil
}

// setTraceHeader stamps the context's trace id (if any) onto an
// intra-cluster request, so the receiving node's edge adopts the id and
// both halves of the exchange group under one distributed trace.
func setTraceHeader(ctx context.Context, req *http.Request) {
	if id := obsv.FromContext(ctx).ID(); id != "" {
		req.Header.Set(obsv.TraceHeader, id)
	}
}
