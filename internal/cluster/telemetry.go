package cluster

import (
	"context"
	"fmt"
	"net/http"
)

// FetchDebug GETs a read-only telemetry path ("/metrics", "/debug/flight?
// trace=...") from a cluster member and returns its body. It powers the
// /debug/cluster and /debug/trace fan-outs: those handlers ask every
// member for its *local* view and merge, so the fetched paths are
// leaf-only and cannot recurse. Non-2xx statuses are errors — a member
// that answers garbage is as unreachable as one that does not answer.
// Transport failures feed the same liveness observation as forwarding, so
// a dead member found during a telemetry sweep is marked down like any
// other.
func (c *Cluster) FetchDebug(ctx context.Context, node, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, node+path, nil)
	if err != nil {
		return nil, fmt.Errorf("cluster: fetch %s%s: %w", node, path, err)
	}
	setTraceHeader(ctx, req)
	resp, err := c.client.Do(req)
	if err != nil {
		c.observeTransportErr(node, err)
		return nil, fmt.Errorf("cluster: fetch %s%s: %w", node, path, err)
	}
	defer resp.Body.Close()
	b, err := readBody(resp.Body, maxDebugBody)
	if err != nil {
		c.observeTransportErr(node, err)
		return nil, fmt.Errorf("cluster: fetch %s%s: read: %w", node, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("cluster: fetch %s%s: status %d", node, path, resp.StatusCode)
	}
	return b, nil
}
