package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
)

const fetchAttempts = 3

// FetchStore retrieves a durable-store file (a session record or a
// snapshot) from a peer's /v1/store endpoint, for warm handoff when ring
// ownership moves. fpHex is the lowercase hex fingerprint. Transport
// failures mark the peer down and retry with capped backoff (bounded
// attempts, per-attempt timeouts derived from the caller's deadline); a
// 404 is the peer authoritatively not holding the file — reported as an
// error immediately, with no markdown and no retry.
func (c *Cluster) FetchStore(ctx context.Context, peer, fpHex string) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt < fetchAttempts; attempt++ {
		if attempt > 0 {
			if err := Backoff(ctx, attempt-1); err != nil {
				return nil, err
			}
		}
		actx, cancel := context.WithTimeout(ctx, AttemptTimeout(ctx, fetchAttempts-attempt))
		b, retriable, err := c.fetchStoreOnce(actx, peer, fpHex)
		cancel()
		if err == nil {
			return b, nil
		}
		if !retriable {
			return nil, err
		}
		lastErr = err
		c.observeTransportErr(peer, err)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	return nil, lastErr
}

func (c *Cluster) fetchStoreOnce(ctx context.Context, peer, fpHex string) (b []byte, retriable bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/v1/store/"+fpHex, nil)
	if err != nil {
		return nil, false, fmt.Errorf("cluster: fetch store from %s: %w", peer, err)
	}
	req.Header.Set(HopHeader, "1")
	setTraceHeader(ctx, req)
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, true, fmt.Errorf("cluster: fetch store from %s: %w", peer, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, false, fmt.Errorf("cluster: fetch store from %s: status %d", peer, resp.StatusCode)
	}
	b, err = readBody(resp.Body, maxResultBody)
	if err != nil {
		return nil, !errors.Is(err, errTooLarge), fmt.Errorf("cluster: fetch store from %s: read response: %w", peer, err)
	}
	return b, false, nil
}
