package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// Replication RPCs: an owner pushes what it just produced — the encoded
// solve response for the cache, and the durable artifacts (snapshot +
// session record) for the store — to its ring-successors, so a
// successor can answer warm the moment the owner dies. A store push POSTs
// the bytes GET /v1/store/{fp} serves, and the replica ingests them
// through store.Ingest's verify-or-quarantine path; a cache push POSTs
// the body a cache hit serves to /v1/replica/{fp}, which checks its
// embedded key and canonical form. Either way a corrupt or misdirected
// push is rejected, never served.
//
// Pushes retry only on transport errors: an HTTP status is the replica
// speaking authoritatively (400 = bad payload, 503 = draining) and
// retrying the same bytes cannot change its mind.

const pushAttempts = 3

// PushReplica pushes an encoded solve-response body to peer's replica
// cache (POST /v1/replica/{fpHex}).
func (c *Cluster) PushReplica(ctx context.Context, peer, fpHex string, body []byte) error {
	return c.push(ctx, peer, "/v1/replica/"+fpHex, body)
}

// PushStore pushes a durable store artifact — snapshot or session record
// bytes, exactly as GET /v1/store/{fp} serves them — to peer
// (POST /v1/store/{fpHex}). The receiver ingests via store.Ingest, which
// re-verifies content addressing before the artifact becomes visible.
func (c *Cluster) PushStore(ctx context.Context, peer, fpHex string, data []byte) error {
	return c.push(ctx, peer, "/v1/store/"+fpHex, data)
}

func (c *Cluster) push(ctx context.Context, peer, path string, body []byte) error {
	var lastErr error
	for attempt := 0; attempt < pushAttempts; attempt++ {
		if attempt > 0 {
			if err := Backoff(ctx, attempt-1); err != nil {
				return err
			}
		}
		actx, cancel := context.WithTimeout(ctx, AttemptTimeout(ctx, pushAttempts-attempt))
		err := c.pushOnce(actx, peer, path, body)
		cancel()
		if err == nil {
			return nil
		}
		lastErr = err
		var he *httpError
		if errors.As(err, &he) {
			return err // authoritative rejection: do not retry
		}
		c.observeTransportErr(peer, err)
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
	return fmt.Errorf("cluster: push %s to %s: %w", path, peer, lastErr)
}

func (c *Cluster) pushOnce(ctx context.Context, peer, path string, body []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	setTraceHeader(ctx, req)
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNoContent {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return &httpError{status: resp.StatusCode, msg: string(bytes.TrimSpace(msg))}
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	return nil
}

// httpError is a non-2xx push response: the replica rejected the payload
// (or refused service), authoritatively — not a transport failure.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string {
	if e.msg == "" {
		return fmt.Sprintf("status %d", e.status)
	}
	return fmt.Sprintf("status %d: %s", e.status, e.msg)
}
