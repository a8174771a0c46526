package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// Store exchange: every piece of a key's warm state travels between nodes
// as a store file through /v1/store/{fp}. An owner pushes what it produced
// to its ring-successors (PushStore), so a successor can answer warm the
// moment the owner dies, and a new owner pulls what it lacks (FetchStore).
// A cache entry travels as its result file. The receiver checks every
// pushed file against the fingerprint it claims before publishing it, so a
// corrupt, misdirected or non-canonical push is rejected, never served.
//
// Only transport errors retry, marking the peer down and backing off. An
// HTTP status is the peer's authoritative answer (400 = bad payload, 404 =
// not held, 503 = draining), which retrying cannot change. A reply over
// its limit is neither retried nor held against the peer.

const storeAttempts = 3

// PushStore posts one store file to peer (POST /v1/store/{fpHex}).
func (c *Cluster) PushStore(ctx context.Context, peer, fpHex string, data []byte) error {
	_, err := c.storeExchange(ctx, http.MethodPost, peer, fpHex, data, maxPushReply)
	return err
}

// FetchStore retrieves the store file peer holds under fpHex (GET
// /v1/store/{fpHex}); the caller verifies it before use.
func (c *Cluster) FetchStore(ctx context.Context, peer, fpHex string) ([]byte, error) {
	return c.storeExchange(ctx, http.MethodGet, peer, fpHex, nil, maxResultBody)
}

// storeExchange runs one /v1/store/ request with bounded attempts, each
// under a timeout derived from the caller's deadline, and returns the
// reply read under limit.
func (c *Cluster) storeExchange(ctx context.Context, method, peer, fpHex string, body []byte, limit int64) ([]byte, error) {
	url := peer + "/v1/store/" + fpHex
	var lastErr error
	for attempt := 0; attempt < storeAttempts; attempt++ {
		if attempt > 0 {
			if err := Backoff(ctx, attempt-1); err != nil {
				return nil, err
			}
		}
		actx, cancel := context.WithTimeout(ctx, AttemptTimeout(ctx, storeAttempts-attempt))
		b, err := c.storeOnce(actx, method, url, body, limit)
		cancel()
		if err == nil {
			return b, nil
		}
		lastErr = fmt.Errorf("cluster: %s %s: %w", method, url, err)
		var he *httpError
		if errors.As(err, &he) || errors.Is(err, errTooLarge) {
			return nil, lastErr
		}
		c.observeTransportErr(peer, err)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	return nil, lastErr
}

func (c *Cluster) storeOnce(ctx context.Context, method, url string, body []byte, limit int64) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set(HopHeader, "1")
	req.Header.Set("Content-Type", "application/octet-stream")
	setTraceHeader(ctx, req)
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNoContent {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, &httpError{status: resp.StatusCode, msg: string(bytes.TrimSpace(msg))}
	}
	return readBody(resp.Body, limit)
}

// httpError is a non-2xx reply: the peer refused the request,
// authoritatively — not a transport failure.
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
