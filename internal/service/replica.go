package service

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/obsv"
	"repro/internal/store"
)

// This file is the serving layer's elasticity tier: the membership
// endpoints a joining or leaving node announces itself through, the one
// gate (POST /v1/store/{fp}) every pushed piece of warm state passes, the
// asynchronous replication queue that feeds it, and the migration
// watcher that streams parked sessions to their new owner when ring
// ownership moves. Together they make a node's death boring: its K
// ring-successors already hold its cache entries and durable session
// artifacts, so the first successor answers warm — byte-identical, zero
// solver runs for replicated fingerprints — the moment the failure is
// observed.

// replPushTimeout bounds one replication round (all targets, all files);
// replication is asynchronous and asymptotic, so a slow round is dropped,
// not stretched.
const replPushTimeout = 30 * time.Second

// replReq is one key's warm state to push to a node: the encoded response
// body for the byte cache, and any durable-store artifacts (snapshots,
// then the session record) by fingerprint — the file bytes are read from
// the store at push time, so the queue holds no large payloads beyond the
// response body itself.
type replReq struct {
	key   cache.Key
	body  []byte
	files []cache32
}

// enqueueReplicate hands a just-produced key to the replicator without
// blocking the caller; a full queue drops the push (counted) rather than
// stalling a response — the next solve of a neighboring key, or the
// migration watcher, will converge the replicas later. The s.mu guard
// orders enqueues before Close's channel close.
func (s *Server) enqueueReplicate(req replReq) {
	if s.replQ == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	select {
	case s.replQ <- req:
	default:
		s.replicaFailed.Add(1)
	}
}

// replLoop drains replication requests until Close closes the queue.
// Each round runs under its own "replicate" trace, recorded to the
// flight ring, so the async path is as observable as a request.
func (s *Server) replLoop() {
	defer close(s.replDone)
	for req := range s.replQ {
		s.replicateOne(req)
	}
}

func (s *Server) replicateOne(req replReq) {
	targets := s.clu.ReplicaTargets(req.key, s.replicas)
	if len(targets) == 0 {
		return
	}
	tr := obsv.NewTrace(obsv.NewID(), "replicate", s.clu.Self())
	defer s.obs.Recorder.Record(tr)
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), replPushTimeout)
	defer cancel()
	ctx = obsv.WithTrace(ctx, tr)
	keyHex := hex.EncodeToString(req.key[:])
	tr.Event("replicate: " + keyHex[:12] + " to " + strings.Join(targets, ", "))
	for _, target := range targets {
		if !s.clu.IsUp(target) {
			// Circuit break: a down successor gets nothing pushed; the next
			// key it ranks for (or a later re-solve) retries after recovery.
			s.replicaFailed.Add(1)
			continue
		}
		s.pushTo(ctx, tr, target, req)
	}
	dur := time.Since(start)
	tr.Span("replicate", start, dur)
	s.obs.Replicate.Observe(dur)
}

// pushTo sends one key's warm state to one node as store files through
// its /v1/store/ gate: the result file first (it alone makes failover
// reads warm), then the store files in order, stopping at the first
// failure. It reports whether anything arrived.
func (s *Server) pushTo(ctx context.Context, tr *obsv.Trace, target string, req replReq) (moved bool) {
	push := func(fp cache32, data []byte) bool {
		fpHex := hex.EncodeToString(fp[:])
		if err := s.clu.PushStore(ctx, target, fpHex, data); err != nil {
			s.replicaFailed.Add(1)
			tr.SetError("push " + fpHex[:12] + " to " + target + ": " + err.Error())
			return false // the peer just failed; don't hammer it with the rest
		}
		s.replicaPushed.Add(1)
		moved = true
		return true
	}
	if req.body != nil && !push(req.key, store.EncodeResult(req.key, req.body)) {
		return moved
	}
	for _, fp := range req.files {
		data, _, err := s.store.ReadFile(fp)
		if err != nil {
			continue // evicted or quarantined since the solve; nothing to push
		}
		if !push(fp, data) {
			return moved
		}
	}
	return moved
}

// noteReplicaServe accounts a cache hit that was satisfied by a
// replicated entry, and — when the key's rightful owner is down — files
// a failover event: this node is answering for a dead owner, warm.
func (s *Server) noteReplicaServe(ctx context.Context, key cache.Key) {
	if s.replicated == nil {
		return
	}
	if _, ok := s.replicated.Get(key); !ok {
		return
	}
	s.replicaServed.Add(1)
	owner := s.clu.OwnerAmongMembers(key)
	if owner != s.clu.Self() && !s.clu.IsUp(owner) {
		s.failovers.Add(1)
		obsv.FromContext(ctx).Event("failover: owner " + owner + " down; replica answered warm")
	}
}

// clusterMemberWire is the /v1/cluster/{join,leave} body: the announcing
// node's URL, and (in join responses) the full member view for the
// joiner to adopt.
type clusterMemberWire struct {
	URL     string           `json:"url"`
	Members []cluster.Member `json:"members,omitempty"`
}

func decodeMemberWire(w http.ResponseWriter, r *http.Request) (clusterMemberWire, bool) {
	var mw clusterMemberWire
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeRequestError(w, err)
		return mw, false
	}
	if err := json.Unmarshal(body, &mw); err != nil {
		writeError(w, http.StatusBadRequest, "cluster body: %v", err)
		return mw, false
	}
	if mw.URL == "" {
		writeError(w, http.StatusBadRequest, "cluster body: missing url")
		return mw, false
	}
	return mw, true
}

// handleClusterJoin admits a node into the member set and returns the
// full member view for it to adopt. Gossip spreads the new member to the
// rest of the cluster within a probe cycle per hop; the ring recomputes
// incrementally, moving only the joiner's key ranges.
func (s *Server) handleClusterJoin(w http.ResponseWriter, r *http.Request) {
	if s.clu == nil {
		writeError(w, http.StatusNotFound, "not clustered")
		return
	}
	mw, ok := decodeMemberWire(w, r)
	if !ok {
		return
	}
	members, err := s.clu.Join(mw.URL)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	obsv.FromContext(r.Context()).Event("cluster: member joined: " + mw.URL)
	writeJSON(w, http.StatusOK, clusterMemberWire{URL: s.clu.Self(), Members: members})
}

// handleClusterLeave tombstones a member. The departing node calls this
// on its peers (via AnnounceLeave) so ownership moves before its process
// exits instead of after probes time out.
func (s *Server) handleClusterLeave(w http.ResponseWriter, r *http.Request) {
	if s.clu == nil {
		writeError(w, http.StatusNotFound, "not clustered")
		return
	}
	mw, ok := decodeMemberWire(w, r)
	if !ok {
		return
	}
	if err := s.clu.Leave(mw.URL); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	obsv.FromContext(r.Context()).Event("cluster: member left: " + mw.URL)
	writeJSON(w, http.StatusOK, clusterMemberWire{URL: s.clu.Self(), Members: s.clu.Members()})
}

// handleStorePut is the one gate for state a peer pushes. Every file is
// checked against the fingerprint its path claims before it becomes
// visible, so a corrupt, misdirected or non-canonical push can never be
// served or poison a future restore. A result file carries a cache entry:
// it needs a cluster but no data directory, and goes into the cache. A
// snapshot or session record needs a data directory and goes through
// store.Ingest (content hash for snapshots, framing plus embedded base
// fingerprint for session records).
func (s *Server) handleStorePut(w http.ResponseWriter, r *http.Request) {
	fpHex := strings.TrimPrefix(r.URL.Path, "/v1/store/")
	what, err := s.ingestPush(fpHex, http.MaxBytesReader(w, r.Body, s.maxBody))
	if err != nil {
		s.replicaFailed.Add(1)
		writeRequestError(w, err)
		return
	}
	s.replicaIngested.Add(1)
	obsv.FromContext(r.Context()).Event("replica: ingested " + what + " " + fpHex[:12])
	w.WriteHeader(http.StatusNoContent)
}

// ingestPush verifies and publishes the file body carries under fpHex and
// names what it was; an error carries the status to answer with.
func (s *Server) ingestPush(fpHex string, body io.Reader) (string, error) {
	raw, err := hex.DecodeString(fpHex)
	if err != nil || len(raw) != 32 {
		return "", badRequest("store path %q is not a 64-hex-digit fingerprint", fpHex)
	}
	var fp cache32
	copy(fp[:], raw)
	data, err := io.ReadAll(body)
	if err != nil {
		return "", err
	}
	key, res, err := store.ParseResult(data)
	if err != nil {
		if s.store == nil {
			return "", &apiError{status: http.StatusNotFound, msg: "no data directory configured"}
		}
		if _, err := s.store.Ingest(fp, data); err != nil {
			return "", badRequest("store ingest %s: %v", fpHex, err)
		}
		return "store file", nil
	}
	if s.clu == nil {
		return "", &apiError{status: http.StatusNotFound, msg: "not clustered"}
	}
	if key != fp {
		return "", badRequest("result file for %s names key %x", fpHex, key)
	}
	// The body must be the canonical encoding of a solve response whose
	// embedded key is the path's: re-serialization must reproduce the
	// bytes exactly. That is the strongest check available without
	// re-solving.
	var resp SolveResponse
	if err := json.Unmarshal(res, &resp); err != nil {
		return "", badRequest("replica body: %v", err)
	}
	reenc, err := json.Marshal(resp)
	if err != nil || resp.Key != fpHex || !bytes.Equal(reenc, res) {
		return "", badRequest("replica body for %s failed verification", fpHex)
	}
	s.storeResult(fp, res)
	s.replicated.Put(fp, struct{}{})
	return "cache entry", nil
}

// watchMembership reacts to membership change: whenever the member set
// shifts (join, leave, gossip-learned churn), every parked session whose
// base now ranks to a different owner is streamed there — cache entry
// plus durable artifacts — so `{base, delta}` routing follows the new
// ring onto a node that is already warm. Pushes are idempotent (the
// store ingests by content address, the cache by key), so racing with
// the new owner's own solves is harmless.
func (s *Server) watchMembership() {
	defer close(s.watchDone)
	for {
		select {
		case <-s.shutdown:
			return
		case <-s.clu.Changed():
			s.migrateSessions(context.Background())
		}
	}
}

// migrateSessions pushes every locally parked session owned elsewhere to
// its current owner. Used on membership change and by Leave's drain.
func (s *Server) migrateSessions(ctx context.Context) {
	bases := s.sessions.Keys()
	if len(bases) == 0 {
		return
	}
	tr := obsv.NewTrace(obsv.NewID(), "migrate", s.clu.Self())
	defer s.obs.Recorder.Record(tr)
	start := time.Now()
	ctx, cancel := context.WithTimeout(ctx, replPushTimeout)
	defer cancel()
	ctx = obsv.WithTrace(ctx, tr)
	moved := 0
	for _, base := range bases {
		owner, self := s.clu.OwnerOf(base)
		if self || owner == "" {
			continue
		}
		if s.migrateSession(ctx, tr, base, owner) {
			moved++
		}
	}
	if moved > 0 {
		s.sessionsMigrated.Add(uint64(moved))
		tr.Span("migrate", start, time.Since(start))
	}
}

// migrateSession streams one base's warm state to its new owner through
// the replication push: the cached response body, then the snapshots and
// the session record. Partial transfers are fine — whatever arrived is
// verified and usable, and the remainder stays reachable through the
// pull-side handoff (/v1/store GET).
func (s *Server) migrateSession(ctx context.Context, tr *obsv.Trace, base cache.Key, owner string) bool {
	req := replReq{key: base}
	req.body, _ = s.cache.Get(base)
	if s.store != nil {
		if rec, err := s.store.LoadSession(base); err == nil {
			req.files = []cache32{rec.R1FP, rec.R2FP, base}
		}
	}
	if !s.pushTo(ctx, tr, owner, req) {
		return false
	}
	tr.Event("migrate: session " + hex.EncodeToString(base[:])[:12] + " -> " + owner)
	return true
}

// Leave drains this node out of the cluster gracefully: it tombstones
// itself (locally and, best-effort, on every peer), then synchronously
// streams every parked session to its new owner under the post-leave
// ring. After Leave returns the process can exit without stranding warm
// state; anything the drain missed remains replicated on the successors
// or pullable until the process actually dies.
func (s *Server) Leave(ctx context.Context) {
	if s.clu == nil {
		return
	}
	s.clu.AnnounceLeave(ctx)
	s.migrateSessions(ctx)
}
