package service

import (
	"context"
	"encoding/hex"
	"net/http"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obsv"
	"repro/internal/store"
)

// This file is the serving layer's durable-store integration: persisting
// parked sessions off the request path, restoring them after a restart so
// previously warm {base, delta} traffic is served with zero cold solves,
// and the /v1/store/{fingerprint} handoff endpoint peers pull warm state
// through when ring ownership moves.

// persistReq asks the persister goroutine to write one session record. The
// input is the pristine request instance (the session holds its own
// clones); the session pointer is read under its lock at persist time to
// capture the structural plan the solve resolved.
type persistReq struct {
	key cache32
	in  core.Input
	opt core.Options
	ss  *svcSession
}

type cache32 = [32]byte

// enqueuePersist hands a just-solved base to the persister without blocking
// the request path; a full queue drops the persist (counted) rather than
// stalling a response. The s.mu guard orders enqueues before Close's
// channel close.
func (s *Server) enqueuePersist(req persistReq) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	select {
	case s.persistQ <- req:
	default:
		s.persistErrors.Add(1)
	}
}

// persistLoop drains persist requests until Close closes the queue; Close
// then waits for persistDone, so every accepted persist is flushed to disk
// before shutdown returns — the graceful-shutdown flush.
func (s *Server) persistLoop() {
	defer close(s.persistDone)
	for req := range s.persistQ {
		s.persistSession(req)
	}
}

func (s *Server) persistSession(req persistReq) {
	r1fp, err := s.store.PutRelation(req.in.R1)
	if err != nil {
		s.persistErrors.Add(1)
		return
	}
	r2fp, err := s.store.PutRelation(req.in.R2)
	if err != nil {
		s.persistErrors.Add(1)
		return
	}
	req.ss.mu.Lock()
	pl := req.ss.sess.Plan()
	sfp := req.ss.sess.StructuralFingerprint()
	req.ss.mu.Unlock()
	opt := req.opt
	opt.Workers = 0 // parallelism is per-process policy, not instance state
	rec := &store.SessionRecord{
		BaseFP: req.key, SFP: sfp, R1FP: r1fp, R2FP: r2fp,
		K1: req.in.K1, K2: req.in.K2, FK: req.in.FK,
		Opt: opt, CCs: req.in.CCs, DCs: req.in.DCs, Plan: pl,
	}
	if err := s.store.PutSession(rec); err != nil {
		s.persistErrors.Add(1)
		return
	}
	s.sessionsPersisted.Add(1)
	// The durable artifacts exist now; push them to the base's
	// ring-successors so a successor can restore this session warm after
	// the owner dies (the cache body was already enqueued by the solve).
	s.enqueueReplicate(replReq{key: req.key, files: []cache32{r1fp, r2fp, req.key}})
}

// reviveSession recovers a warm session for base from outside process
// memory: the local durable store first, then — in a cluster — a warm
// handoff fetch from a peer. Returns nil when no recoverable state exists;
// the caller falls back to the no-session 404. The whole recovery is timed
// onto the Restore histogram and the request's trace, and a store file
// quarantined during the attempt marks the trace failed so the flight
// recorder snapshots the evidence.
func (s *Server) reviveSession(ctx context.Context, base cache32) *svcSession {
	if s.store == nil {
		return nil
	}
	tr := obsv.FromContext(ctx)
	start := time.Now()
	corruptBefore := s.store.CorruptFiles()
	ss := s.restoreSession(base)
	if ss != nil {
		tr.Event("store: session restored from local store")
	} else if s.clu != nil && s.fetchSessionFromPeers(ctx, base) {
		if ss = s.restoreSession(base); ss != nil {
			tr.Event("store: session restored via peer handoff")
		}
	}
	if ss != nil {
		dur := time.Since(start)
		tr.Span("restore", start, dur)
		s.obs.Restore.Observe(dur)
	} else if s.store.CorruptFiles() > corruptBefore {
		tr.SetError("store: file quarantined during session restore")
	}
	return ss
}

// restoreSession rebuilds a warm session from the durable store. The
// reconstructed instance is re-fingerprinted and must equal the record's
// base fingerprint — a mismatch (however it arose) means the state cannot
// be trusted and the restore is refused; the client re-submits the full
// instance and the node re-solves rather than ever serving wrong bytes.
func (s *Server) restoreSession(base cache32) *svcSession {
	rec, err := s.store.LoadSession(base)
	if err != nil {
		return nil // missing, or corrupt (quarantined and counted by the store)
	}
	// Both snapshots are loaded before either refusal counts, so a refused
	// R2 is quarantined beside a refused R1 instead of staying in place.
	r1, err1 := s.store.LoadRelation(rec.R1FP)
	r2, err2 := s.store.LoadRelation(rec.R2FP)
	if err1 != nil || err2 != nil {
		s.restoreFails.Add(1)
		return nil
	}
	in := core.Input{R1: r1, R2: r2, K1: rec.K1, K2: rec.K2, FK: rec.FK, CCs: rec.CCs, DCs: rec.DCs}
	fp, err := core.Fingerprint(in, rec.Opt)
	if err != nil || fp != base {
		s.restoreFails.Add(1)
		return nil
	}
	if rec.Plan != nil {
		// The restored plan makes the session's first real solve classify
		// warm (plan reuse) instead of cold.
		s.engine.AdoptPlan(rec.Plan)
	}
	sess, err := s.engine.OpenKeyed(in, rec.Opt, s.pool, base)
	if err != nil {
		s.restoreFails.Add(1)
		return nil
	}
	ss := &svcSession{sess: sess}
	s.sessions.Put(base, ss)
	s.sessionsRestored.Add(1)
	return ss
}

// fetchSessionFromPeers pulls the session record for base — and any
// snapshot it references that is not already local — from the first up
// peer that has them. Every fetched file is verified against its claimed
// fingerprint by Ingest before it is published locally.
func (s *Server) fetchSessionFromPeers(ctx context.Context, base cache32) bool {
	for _, peer := range s.clu.UpNodes() {
		if peer == s.clu.Self() || s.pull(ctx, peer, base) != nil {
			continue
		}
		rec, err := s.store.LoadSession(base)
		if err != nil {
			continue
		}
		complete := true
		for _, fp := range []cache32{rec.R1FP, rec.R2FP} {
			// A snapshot already local is not fetched again (content-addressed dedup).
			if _, _, err := s.store.ReadFile(fp); err != nil && s.pull(ctx, peer, fp) != nil {
				complete = false
				break
			}
		}
		if complete {
			s.handoffFetches.Add(1)
			return true
		}
	}
	return false
}

// pull fetches the store file fp names from peer and ingests it.
func (s *Server) pull(ctx context.Context, peer string, fp cache32) error {
	data, err := s.clu.FetchStore(ctx, peer, hex.EncodeToString(fp[:]))
	if err == nil {
		_, err = s.store.Ingest(fp, data)
	}
	return err
}

// handleStoreGet serves raw durable-store files to peers for warm handoff.
// The store validates framing (and, for snapshots, the content hash) before
// any byte leaves the node.
func (s *Server) handleStoreGet(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		writeError(w, http.StatusNotFound, "no data directory configured")
		return
	}
	fpHex := strings.TrimPrefix(r.URL.Path, "/v1/store/")
	raw, err := hex.DecodeString(fpHex)
	if err != nil || len(raw) != 32 {
		writeError(w, http.StatusBadRequest, "store path %q is not a 64-hex-digit fingerprint", fpHex)
		return
	}
	var fp cache32
	copy(fp[:], raw)
	data, kind, err := s.store.ReadFile(fp)
	if err != nil {
		writeError(w, http.StatusNotFound, "no store file for %s", fpHex)
		return
	}
	s.handoffServed.Add(1)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Linksynth-Store-Kind", kind.String())
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}
