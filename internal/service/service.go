// Package service is the linksynthd serving layer: an HTTP JSON API over
// the C-Extension solver with a content-addressed result cache.
//
// Endpoints:
//
//	POST   /v1/solve          solve one instance (JSON or multipart CSV), or a
//	                          {base, delta} against a warm session; ?explain=1
//	                          adds the solve's cost report
//	POST   /v1/batch          enqueue an async multi-instance job; returns a job id
//	GET    /v1/jobs           every retained job's status, without results
//	GET    /v1/jobs/{id}      job status and, once finished, per-instance results
//	DELETE /v1/jobs/{id}      cancel a queued or running job
//	POST   /v1/cluster/join   admit a member and answer with the member view
//	POST   /v1/cluster/leave  tombstone a departing member
//	GET    /v1/store/{fp}     serve a durable-store file (snapshot or session)
//	POST   /v1/store/{fp}     ingest a pushed store file: a cache entry's result
//	                          file, a snapshot or a session record
//	GET    /healthz           liveness, and in a cluster the member view
//	GET    /metrics           Prometheus exposition (?format=json: the same
//	                          families as JSON)
//	GET    /debug/flight      recent traces (?trace=<id> filters, ?format=text)
//	GET    /debug/cluster     every live member's metric families, merged
//	GET    /debug/trace/{id}  one trace stitched across every member
//
// Every solve is content-addressed through core.Fingerprint: identical
// instances — across clients, and across restarts when a data directory is
// configured (linksynthd -data-dir) — are solved once and served from the
// cache byte-identically thereafter. Concurrent requests for the same
// instance coalesce onto a single solver run. All solver work multiplexes
// over one shared internal/sched pool, with a bounded admission queue in
// front of it, so N concurrent clients never oversubscribe the host. In a
// cluster a solved key's warm state replicates as store files through
// POST /v1/store/{fp}, one gate that checks each against its fingerprint.
package service

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/incr"
	"repro/internal/obsv"
	"repro/internal/sched"
	"repro/internal/store"
)

// Config assembles a Server.
type Config struct {
	// Cache is the content-addressed result store; required.
	Cache *cache.Cache
	// Workers sizes the shared solver pool (<= 0 selects GOMAXPROCS). It
	// also bounds how many solver runs execute concurrently.
	Workers int
	// MaxBody caps request body bytes (<= 0 selects 32 MiB). Oversized
	// requests fail with 413.
	MaxBody int64
	// QueueDepth bounds both the solve admission queue and the async job
	// queue (<= 0 selects 64). Requests beyond the bound fail with 503
	// rather than pile up.
	QueueDepth int
	// Cluster, when non-nil, shards the service: solves whose fingerprint
	// hashes to another node are forwarded there (falling back to local
	// solving when the owner is down), and batch jobs scatter sub-jobs to
	// the owning nodes and gather their results. Delta requests route by
	// the owner of the *base* fingerprint, so the warm session a delta
	// needs is co-located with it. Nil runs single-node.
	Cluster *cluster.Cluster
	// Replicas is the number of ring-successors each solved key is
	// asynchronously replicated to (cache entry plus, with a Store, the
	// durable session artifacts), so killing a key's owner leaves its
	// first surviving successor able to answer warm — byte-identical,
	// with zero solver runs for replicated fingerprints. 0 disables
	// replication; ignored without a Cluster.
	Replicas int
	// SessionEntries bounds the warm solver sessions retained for
	// incremental (delta) re-solves, LRU beyond that (<= 0 selects 64).
	// Every locally solved sync instance leaves a session behind.
	SessionEntries int
	// PlanEntries bounds the compiled-plan cache shared by the sessions
	// (<= 0 selects 128).
	PlanEntries int
	// Store, when non-nil, is the durable tier: parked sessions and their
	// relation snapshots are persisted under it off the request path, warm
	// state is restored from it after a restart, and peers may pull files
	// through /v1/store/{fingerprint} for warm handoff. Nil disables
	// persistence; the server is then RAM-only like before.
	Store *store.Store
	// FlightEntries sizes the flight recorder's ring of recent traces
	// (<= 0 selects 256). With a Store configured, traces that end in an
	// error are additionally snapshotted under its flight/ directory.
	FlightEntries int
}

// Server implements http.Handler for the linksynthd API.
type Server struct {
	cache      *cache.Cache
	pool       *sched.Pool
	clu        *cluster.Cluster // nil = single-node
	engine     *incr.Engine
	sessions   *cache.LRU[*svcSession]
	wanted     *cache.LRU[struct{}] // bases recent deltas asked for but found no session
	replicated *cache.LRU[struct{}] // keys whose cache entries arrived by replica push
	store      *store.Store         // nil = no durable tier
	obs        *obsv.Observer       // traces, histograms, flight recorder
	replicas   int                  // ring-successors each solved key replicates to
	nWorkers   int
	maxBody    int64
	queueDepth int
	start      time.Time

	solveSem  chan struct{} // admission: bounds concurrently executing solver runs
	waiting   atomic.Int64
	gatherSem chan struct{} // bounds concurrently coordinating scatter-gather jobs

	mu       sync.Mutex
	inflight map[cache.Key]*flight
	jobs     map[string]*job
	finished []string // retired job ids, oldest first; bounds registry growth
	jobSeq   uint64
	jobQueue chan *job
	shutdown chan struct{}
	closed   bool

	solveRuns     atomic.Uint64
	solveErrors   atomic.Uint64
	cachePutFails atomic.Uint64
	coalesced     atomic.Uint64
	rejectedBusy  atomic.Uint64
	requests      atomic.Uint64
	jobsAccepted  atomic.Uint64
	jobsDone      atomic.Uint64
	jobsCanceled  atomic.Uint64

	forwarded        atomic.Uint64 // solves relayed to their owning node
	forwardFallbacks atomic.Uint64 // forward attempts that failed (peer down or 5xx)
	forwardExhausted atomic.Uint64 // solves rejected 503 after the whole chain failed
	hopServed        atomic.Uint64 // hop-guarded requests answered locally
	scatterJobs      atomic.Uint64 // batch jobs that scattered sub-jobs to peers
	gatherFallbacks  atomic.Uint64 // scattered groups re-solved locally after a peer failure

	replicaPushed    atomic.Uint64 // cache entries and store files pushed to successors
	replicaIngested  atomic.Uint64 // pushed entries and files accepted here
	replicaServed    atomic.Uint64 // cache hits satisfied by a replicated entry
	replicaFailed    atomic.Uint64 // pushes or ingests that failed or were rejected
	failovers        atomic.Uint64 // replica answers served while the key's owner was down
	sessionsMigrated atomic.Uint64 // parked sessions streamed to a new owner

	persistQ    chan persistReq // nil when store is nil
	persistDone chan struct{}
	replQ       chan replReq // nil unless clustered with Replicas > 0
	replDone    chan struct{}
	watchDone   chan struct{} // nil unless the membership watcher runs

	sessionsPersisted atomic.Uint64 // session records flushed to the store
	sessionsRestored  atomic.Uint64 // warm sessions rebuilt from the store
	persistErrors     atomic.Uint64 // persists dropped or failed
	restoreFails      atomic.Uint64 // restores refused (bad state, fingerprint mismatch)
	handoffFetches    atomic.Uint64 // warm handoffs completed from a peer
	handoffServed     atomic.Uint64 // store files served to peers

	incrCold      atomic.Uint64 // local solves with no reuse (fresh compile, no splice)
	incrWarm      atomic.Uint64 // local solves reusing a plan or compiled problem, no splicing
	incrPartial   atomic.Uint64 // local solves splicing partitions from a warm session
	deltaRequests atomic.Uint64 // warm-start (base+delta) requests received
	sessionMisses atomic.Uint64 // delta requests whose base had no warm session
}

// svcSession wraps one warm solver session with the lock serializing its
// solves; the sessions LRU hands the same wrapper to every request for the
// same base fingerprint.
type svcSession struct {
	mu   sync.Mutex
	sess *incr.Session
}

// errNoSession rejects a delta whose base has no warm session on this node
// (never solved here, evicted, or lost to a restart).
var errNoSession = errors.New("service: no warm session for base fingerprint")

// flight is one in-progress solve that followers of the same key wait on.
// key is the content fingerprint of the leader's result, which for a delta
// flight (keyed by (base, delta)) is the patched instance's.
type flight struct {
	done chan struct{}
	body []byte
	key  cache.Key
	err  error
}

var errBusy = errors.New("service: solve queue full")

// New builds a Server and starts its job runner. Call Close to stop it.
func New(cfg Config) *Server {
	if cfg.Cache == nil {
		panic("service: Config.Cache is required")
	}
	pool := sched.New(cfg.Workers)
	n := pool.Workers()
	if n == 1 {
		pool = nil // take the solver's true sequential path
	}
	maxBody := cfg.MaxBody
	if maxBody <= 0 {
		maxBody = 32 << 20
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = 64
	}
	sessions := cfg.SessionEntries
	if sessions <= 0 {
		sessions = 64
	}
	node := "local"
	if cfg.Cluster != nil {
		node = cfg.Cluster.Self()
	}
	flightDir := ""
	if cfg.Store != nil {
		flightDir = cfg.Store.FlightDir()
	}
	s := &Server{
		cache:      cfg.Cache,
		pool:       pool,
		clu:        cfg.Cluster,
		engine:     incr.NewEngine(cfg.PlanEntries),
		sessions:   cache.NewLRU[*svcSession](sessions, nil),
		wanted:     cache.NewLRU[struct{}](sessions, nil),
		obs:        obsv.NewObserver(node, cfg.FlightEntries, flightDir),
		nWorkers:   n,
		maxBody:    maxBody,
		queueDepth: depth,
		start:      time.Now(),
		solveSem:   make(chan struct{}, n),
		gatherSem:  make(chan struct{}, depth),
		inflight:   make(map[cache.Key]*flight),
		jobs:       make(map[string]*job),
		jobQueue:   make(chan *job, depth),
		shutdown:   make(chan struct{}),
	}
	if cfg.Store != nil {
		s.store = cfg.Store
		s.persistQ = make(chan persistReq, depth)
		s.persistDone = make(chan struct{})
		go s.persistLoop()
	}
	if cfg.Cluster != nil {
		// The replica-tracking set exists whenever clustered — a node that
		// does not push (Replicas == 0) can still receive pushes from peers
		// that do, and must track what it ingested.
		s.replicated = cache.NewLRU[struct{}](4096, nil)
		if cfg.Replicas > 0 {
			s.replicas = cfg.Replicas
			s.replQ = make(chan replReq, depth)
			s.replDone = make(chan struct{})
			go s.replLoop()
		}
		s.watchDone = make(chan struct{})
		go s.watchMembership()
	}
	go s.jobLoop()
	return s
}

// Close stops the job runner and cancels every unfinished job. The cache is
// caller-owned and stays open.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.shutdown)
	//lint:ordered shutdown cancels every job; cancellation order is unobservable
	for _, j := range s.jobs {
		j.cancel()
	}
	s.mu.Unlock()
	if s.persistQ != nil {
		// Graceful-shutdown flush: every persist accepted before the close
		// reaches disk before Close returns. enqueuePersist checks closed
		// under s.mu, so no send can race the close.
		close(s.persistQ)
		<-s.persistDone
	}
	if s.replQ != nil {
		// Drained after the persist queue: persistLoop enqueues replication
		// (its enqueues after the closed flag are dropped, never sent), so
		// closing in this order cannot race a send.
		close(s.replQ)
		<-s.replDone
	}
	if s.watchDone != nil {
		<-s.watchDone
	}
}

// ServeHTTP dispatches the API: introspection endpoints (liveness, scrape,
// flight dump) are answered directly, everything else runs under a trace —
// see serveTraced. Routing is deliberately manual (method checks plus a
// prefix match for /v1/jobs/) so behavior does not depend on http.ServeMux
// pattern semantics.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	switch r.URL.Path {
	case "/healthz":
		if wantMethod(w, r, http.MethodGet) {
			s.handleHealthz(w)
		}
	case "/metrics":
		if wantMethod(w, r, http.MethodGet) {
			s.handleMetrics(w, r)
		}
	case "/debug/flight":
		if wantMethod(w, r, http.MethodGet) {
			s.handleFlight(w, r)
		}
	case "/debug/cluster":
		if wantMethod(w, r, http.MethodGet) {
			s.handleClusterMetrics(w, r)
		}
	default:
		if id, ok := strings.CutPrefix(r.URL.Path, "/debug/trace/"); ok {
			if wantMethod(w, r, http.MethodGet) {
				s.handleClusterTrace(w, r, id)
			}
			return
		}
		s.serveTraced(w, r)
	}
}

// route serves the traced API surface.
func (s *Server) route(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/v1/solve":
		if !wantMethod(w, r, http.MethodPost) {
			return
		}
		s.handleSolve(w, r)
	case r.URL.Path == "/v1/batch":
		if !wantMethod(w, r, http.MethodPost) {
			return
		}
		s.handleBatch(w, r)
	case r.URL.Path == "/v1/jobs":
		if !wantMethod(w, r, http.MethodGet) {
			return
		}
		s.handleJobList(w)
	case r.URL.Path == "/v1/cluster/join":
		if !wantMethod(w, r, http.MethodPost) {
			return
		}
		s.handleClusterJoin(w, r)
	case r.URL.Path == "/v1/cluster/leave":
		if !wantMethod(w, r, http.MethodPost) {
			return
		}
		s.handleClusterLeave(w, r)
	case strings.HasPrefix(r.URL.Path, "/v1/store/"):
		switch r.Method {
		case http.MethodGet:
			s.handleStoreGet(w, r)
		case http.MethodPost:
			s.handleStorePut(w, r)
		default:
			w.Header().Set("Allow", "GET, POST")
			writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		}
	case strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
		id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
		if id == "" || strings.Contains(id, "/") {
			writeError(w, http.StatusNotFound, "no such job")
			return
		}
		switch r.Method {
		case http.MethodGet:
			s.handleJobGet(w, id)
		case http.MethodDelete:
			s.handleJobCancel(w, id)
		default:
			w.Header().Set("Allow", "GET, DELETE")
			writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		}
	default:
		writeError(w, http.StatusNotFound, "no such endpoint %s", r.URL.Path)
	}
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)

	// In a cluster this request may belong to another node, and forwarding
	// relays the original bytes verbatim — so buffer the body before
	// parsing. A hop-guarded request is always answered locally.
	hopped := r.Header.Get(cluster.HopHeader) != ""
	var raw []byte
	if s.clu != nil && !hopped {
		var err error
		raw, err = io.ReadAll(r.Body)
		if err != nil {
			writeRequestError(w, err)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(raw))
	}

	p, err := parseSolveRequest(r)
	if err != nil {
		writeRequestError(w, err)
		return
	}
	if wantExplain(r) {
		// Mark the trace before any solver work: the solver measures its
		// cost report only when the request asked, and writeSolveBody
		// splices it into (a copy of) the canonical body on the way out.
		obsv.FromContext(r.Context()).RequestExplain()
	}
	if s.clu != nil && hopped {
		s.hopServed.Add(1)
	}
	if p.isDelta {
		s.handleDelta(w, r, p, raw, hopped)
		return
	}
	key, err := core.Fingerprint(p.in, p.opt)
	if err != nil {
		writeError(w, http.StatusBadRequest, "fingerprint: %v", err)
		return
	}
	// The local cache answers first, clustered or not: it is authoritative
	// for keys this node owns and byte-identical for any key it happens to
	// hold (replica pushes and fallback solves populate it), so skipping
	// the hop is always safe — and it is exactly how a successor serves a
	// dead owner's keys warm.
	if body, ok := s.cache.Get(key); ok {
		s.noteReplicaServe(r.Context(), key)
		s.parkSessionAsync(key, p.in, p.opt)
		obsv.FromContext(r.Context()).Event("cache: byte cache answered")
		s.writeSolveBody(w, r, key, "hit", body)
		return
	}
	if s.clu != nil && !hopped {
		if _, self := s.clu.OwnerOf(key); !self && s.forwardSolve(w, r, key, raw) {
			return
		}
		// This node owns the key, or the chain walk ended here: it is now
		// the best surviving candidate for the key, so it serves — warm
		// when the key was replicated here, cold only as the new owner.
	}
	body, status, err := s.resolve(r.Context(), key, p.in, p.opt, true)
	if err != nil {
		writeResolveError(w, err)
		return
	}
	s.writeSolveBody(w, r, key, status, body)
}

// handleDelta answers a warm-start request: in a cluster the request is
// relayed to the owner of the *base* fingerprint (where the warm session
// lives); locally, identical (base, delta) pairs coalesce onto one partial
// re-solve through the shared flight map.
func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request, p *solveParsed, raw []byte, hopped bool) {
	s.deltaRequests.Add(1)
	if s.clu != nil && !hopped {
		if _, self := s.clu.OwnerOf(p.base); !self {
			if s.forwardSolve(w, r, p.base, raw) {
				return
			}
			// The chain ended here. With replication this node holds the
			// base's replicated session artifacts and restores warm; without
			// it, it may still have a session from an earlier fallback solve.
		}
	}
	body, key, status, err := s.singleflight(r.Context(), deltaFlightKey(p.base, p.delta), func() ([]byte, cache.Key, string, error) {
		return s.solveDelta(r.Context(), p)
	})
	if err != nil {
		if errors.Is(err, errNoSession) {
			writeError(w, http.StatusNotFound,
				"no warm session for base %s on this node; re-submit the full instance", hex.EncodeToString(p.base[:]))
			return
		}
		writeResolveError(w, err)
		return
	}
	w.Header().Set("X-Linksynth-Incr", status)
	// X-Linksynth-Cache keeps its documented hit/miss/coalesced value set;
	// the incremental disposition travels only in X-Linksynth-Incr.
	cacheStatus := "miss"
	if status == "hit" || status == "coalesced" {
		cacheStatus = status
	}
	s.writeSolveBody(w, r, key, cacheStatus, body)
}

// solveDelta runs one partial re-solve: look up the base's warm session,
// resolve the delta under admission control, and serve (and cache) the
// response under the patched instance's full fingerprint. If that
// fingerprint already has a cached body — an equivalent instance was
// solved before — the cached bytes win, keeping responses for one key
// byte-stable across warm and cold paths.
func (s *Server) solveDelta(ctx context.Context, p *solveParsed) ([]byte, cache.Key, string, error) {
	ss, ok := s.sessions.Get(p.base)
	if !ok {
		// The base may have warm state outside process memory: the durable
		// store (we restarted) or a peer's store (ownership moved here).
		if rss := s.reviveSession(ctx, p.base); rss != nil {
			ss, ok = rss, true
		}
	}
	if !ok {
		s.sessionMisses.Add(1)
		// Remember the base so the client's follow-up full submission
		// parks a session even when it is answered from the byte cache.
		s.wanted.Put(p.base, struct{}{})
		obsv.FromContext(ctx).Event("session: no warm session for base")
		return nil, cache.Key{}, "", errNoSession
	}
	// Cache-first: the patched instance's fingerprint is computable without
	// solving, so a delta whose equivalent instance was ever solved — here
	// or before a restart — is answered from the byte cache with zero
	// solver work. A validation error falls through to Resolve, which
	// reports it on the usual path.
	ss.mu.Lock()
	pkey, perr := ss.sess.PatchedFingerprint(p.delta)
	ss.mu.Unlock()
	if perr == nil {
		if body, hit := s.cache.Get(pkey); hit {
			s.noteReplicaServe(ctx, pkey)
			return body, pkey, "hit", nil
		}
	}
	if err := s.acquire(ctx); err != nil {
		return nil, cache.Key{}, "", err
	}
	defer s.release()
	ss.mu.Lock()
	defer ss.mu.Unlock()
	s.solveRuns.Add(1)
	res, key, err := ss.sess.ResolveContext(ctx, p.delta)
	if err != nil {
		s.solveErrors.Add(1)
		return nil, cache.Key{}, "", err
	}
	status := s.countIncr(&res.Stats)
	if body, ok := s.cache.Get(key); ok {
		// An equivalent instance was solved before: the cached bytes win
		// (keeping responses for one key byte-stable) and the disposition
		// reports the cache hit, not the re-solve class.
		return body, key, "hit", nil
	}
	body, err := s.publish(key, ss.sess.Instance(), res)
	return body, key, status, err
}

// countIncr classifies a completed local solve by how much warm state it
// reused, feeding the linksynthd_incr_* counters, and returns the label.
func (s *Server) countIncr(st *core.Stats) string {
	switch {
	case st.SplicedPartitions > 0:
		s.incrPartial.Add(1)
		return "partial"
	case st.ProbReused || st.PlanReused:
		s.incrWarm.Add(1)
		return "warm"
	default:
		s.incrCold.Add(1)
		return "cold"
	}
}

// ensureSession parks a warm session for an instance this node just served
// (or could serve) so later delta requests against its fingerprint find
// warm state. Opening is cheap relative to a solve (one R1 clone); the
// compiled plan and solver state materialize only when a solve actually
// runs through it.
func (s *Server) ensureSession(key cache.Key, in core.Input, opt core.Options) *svcSession {
	if ss, ok := s.sessions.Get(key); ok {
		return ss
	}
	sess, err := s.engine.OpenKeyed(in, opt, s.pool, key)
	if err != nil {
		return nil
	}
	ss := &svcSession{sess: sess}
	s.sessions.Put(key, ss)
	return ss
}

// parkSessionAsync is ensureSession off the request path, for cache hits.
// Hits stay O(1) — no inline clone — and read-heavy traffic rotating over
// many cached keys never churns the session LRU: a hit only parks a
// session when a recent delta actually asked for this base and found none
// (the 404 told the client to re-submit the full instance; this is that
// re-submission arriving as a hit, e.g. after a restart with a warm disk
// cache). The delta found no usable session record either, and a hit
// never solves, so the parked session is persisted here: otherwise a base
// whose record was lost, corrupt or names a refused snapshot would miss
// its first delta after every restart for as long as its body is cached.
func (s *Server) parkSessionAsync(key cache.Key, in core.Input, opt core.Options) {
	if _, ok := s.sessions.Get(key); ok {
		return
	}
	if !s.wanted.Delete(key) {
		return
	}
	go func() {
		if ss := s.ensureSession(key, in, opt); ss != nil && s.store != nil {
			s.enqueuePersist(persistReq{key: key, in: in, opt: opt, ss: ss})
		}
	}()
}

// writeSolveBody writes the canonical solve response. The body bytes are
// identical on every node of a cluster for a given key; only headers (cache
// disposition, serving node) vary. When the request asked for a cost
// report (?explain=1) the explain member is spliced into a copy of the
// body here — strictly after the canonical bytes were fingerprinted and
// cached, so explain can never leak into either.
func (s *Server) writeSolveBody(w http.ResponseWriter, r *http.Request, key cache.Key, status string, body []byte) {
	keyHex := hex.EncodeToString(key[:])
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Linksynth-Cache", status)
	w.Header().Set("ETag", `"`+keyHex+`"`)
	if s.clu != nil {
		w.Header().Set("X-Linksynth-Node", s.clu.Self())
	}
	if tr := obsv.FromContext(r.Context()); tr.ExplainRequested() {
		body = spliceExplain(body, s.explainEnvelope(tr, status))
	}
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// forwardSolve relays the buffered request along the key's failover chain
// — the rendezvous rank over the currently-up nodes — and, on an
// authoritative answer, copies it through. Each attempt gets a timeout
// derived from the caller's remaining deadline budget; a transport
// failure marks the target down (re-ranking the chain, so the next
// attempt goes to whoever now owns the key) and a 5xx from an up node
// advances past it, both after a capped backoff. The walk ends three
// ways: reaching this node in the rank — return false, the caller serves
// locally as the legitimate owner or first surviving successor (warm if
// the key was replicated here); an authoritative answer — written
// through, return true; or the whole chain exhausted — 503 + Retry-After
// (written, return true), never a silent local cold solve that would
// mask a dead cluster as capacity.
func (s *Server) forwardSolve(w http.ResponseWriter, r *http.Request, key cache.Key, raw []byte) bool {
	tr := obsv.FromContext(r.Context())
	maxAttempts := s.replicas + 2
	if maxAttempts > 4 {
		maxAttempts = 4
	}
	tried := make(map[string]bool, maxAttempts)
	for attempt := 0; attempt < maxAttempts; attempt++ {
		target := ""
		for _, u := range s.clu.RankUp(key) {
			if !tried[u] {
				target = u
				break
			}
		}
		if target == "" {
			break // every up candidate tried and failed
		}
		if target == s.clu.Self() {
			return false // best remaining candidate is this node: serve locally
		}
		tried[target] = true
		if attempt > 0 {
			if err := cluster.Backoff(r.Context(), attempt-1); err != nil {
				break
			}
		}
		actx, cancel := context.WithTimeout(r.Context(), cluster.AttemptTimeout(r.Context(), maxAttempts-attempt))
		start := time.Now()
		res, err := s.clu.ForwardSolve(actx, target, r.Header.Get("Content-Type"), r.URL.RawQuery, raw)
		cancel()
		dur := time.Since(start)
		tr.Span("forward", start, dur)
		s.obs.Forward.Observe(dur)
		if err != nil {
			s.forwardFallbacks.Add(1)
			tr.Event("forward: " + target + " unreachable; advancing along successor chain")
			continue // ForwardSolve marked it down; the rank has already moved
		}
		if res.StatusCode >= http.StatusInternalServerError {
			s.forwardFallbacks.Add(1)
			tr.Event("forward: " + target + " answered " + fmt.Sprint(res.StatusCode) + "; advancing along successor chain")
			continue
		}
		s.forwarded.Add(1)
		for _, h := range []string{"Content-Type", "X-Linksynth-Cache", "X-Linksynth-Incr", "X-Linksynth-Node", "ETag", "Retry-After"} {
			if v := res.Header.Get(h); v != "" {
				w.Header().Set(h, v)
			}
		}
		w.WriteHeader(res.StatusCode)
		w.Write(res.Body)
		return true
	}
	s.forwardExhausted.Add(1)
	tr.Event("forward: successor chain exhausted; rejecting with 503")
	writeBusy(w, "every node in the key's successor chain is unavailable; retry")
	return true
}

// resolve answers a cache miss for key: concurrent requests for the key
// coalesce onto one solver run, whichever path leads it. With park set (the
// sync path) a leader solves through a parked warm session; the job path
// leaves park unset, so a large batch never churns the session LRU (see
// Config.SessionEntries). The second return is the cache disposition:
// "miss" (this request ran the solver) or "coalesced" (another in-flight
// request ran it).
func (s *Server) resolve(ctx context.Context, key cache.Key, in core.Input, opt core.Options, park bool) ([]byte, string, error) {
	body, _, status, err := s.singleflight(ctx, key, func() ([]byte, cache.Key, string, error) {
		body, err := s.solveAndStore(ctx, key, in, opt, park)
		return body, key, "miss", err
	})
	return body, status, err
}

// singleflight is the one coalescing point of every local solve. It runs
// lead as the leader of flight fk unless another request (sync, delta or
// a batch job) already leads it; a follower waits and adopts the leader's
// body and result key as "coalesced". A leader that failed on
// cancellation says nothing about the follower's own request, so the
// follower retries, leading itself if nobody else has; any other leader
// error is the follower's too. A follower whose own context ends, or whose
// server shuts down, stops waiting.
func (s *Server) singleflight(ctx context.Context, fk cache.Key, lead func() ([]byte, cache.Key, string, error)) ([]byte, cache.Key, string, error) {
	for {
		f, leader := s.tryLead(fk)
		if leader {
			body, key, status, err := lead()
			f.key = key
			s.settle(fk, f, body, err)
			return body, key, status, err
		}
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, cache.Key{}, "", ctx.Err()
		case <-s.shutdown:
			return nil, cache.Key{}, "", errBusy
		}
		if f.err == nil {
			s.coalesced.Add(1)
			obsv.FromContext(ctx).Event("solve: coalesced onto in-flight leader")
			return f.body, f.key, "coalesced", nil
		}
		if !errors.Is(f.err, context.Canceled) && !errors.Is(f.err, context.DeadlineExceeded) {
			return nil, cache.Key{}, "", f.err
		}
	}
}

// tryLead returns the in-flight solve for key if one exists (lead=false:
// the caller should follow it), or registers and returns a fresh flight the
// caller must complete with settle (lead=true). It is the single point of
// flight registration: singleflight calls it, and so does a batch job
// registering the keys it leads.
func (s *Server) tryLead(key cache.Key) (f *flight, lead bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.inflight[key]; ok {
		return f, false
	}
	f = &flight{done: make(chan struct{})}
	s.inflight[key] = f
	return f, true
}

// settle completes a led flight: followers wake with the body or error, and
// the key leaves the inflight map (any later request re-resolves, hitting
// the cache on success).
func (s *Server) settle(key cache.Key, f *flight, body []byte, err error) {
	f.body, f.err = body, err
	s.mu.Lock()
	delete(s.inflight, key)
	s.mu.Unlock()
	close(f.done)
}

// solveAndStore runs the solver under admission control and publishes the
// response body. With park set (the sync path), the solve runs through a
// warm session — the compiled plan comes from (and feeds) the shared plan
// cache, and the session is parked afterwards so delta requests against
// this fingerprint re-solve incrementally; without it (the async job path)
// the solve takes the plain pooled path and leaves no per-instance state
// behind.
func (s *Server) solveAndStore(ctx context.Context, key cache.Key, in core.Input, opt core.Options, park bool) ([]byte, error) {
	if err := s.acquire(ctx); err != nil {
		return nil, err
	}
	defer s.release()
	s.solveRuns.Add(1)
	var res *core.Result
	var err error
	var ss *svcSession
	if park {
		ss = s.ensureSession(key, in, opt)
	}
	if ss != nil {
		ss.mu.Lock()
		res, err = ss.sess.SolveContext(ctx)
		ss.mu.Unlock()
	} else {
		res, err = core.SolveOnContext(ctx, in, opt, s.pool)
	}
	if err != nil {
		s.solveErrors.Add(1)
		return nil, err
	}
	s.countIncr(&res.Stats)
	if ss != nil && s.store != nil {
		// The base solved and left a warm session; make it durable. The
		// request input is pristine (the session solves on its own clones),
		// so it is exactly the base instance the record must reproduce.
		s.enqueuePersist(persistReq{key: key, in: in, opt: opt, ss: ss})
	}
	return s.publish(key, in, res)
}

// publish is the tail of every local solve — sync, delta and batch alike:
// encode the canonical body, cache it, and queue it for the key's
// ring-successors.
func (s *Server) publish(key cache.Key, in core.Input, res *core.Result) ([]byte, error) {
	body, err := encodeSolveBody(hex.EncodeToString(key[:]), in, res)
	if err != nil {
		return nil, err
	}
	s.storeResult(key, body)
	s.enqueueReplicate(replReq{key: key, body: body})
	return body, nil
}

// storeResult caches a response body. A failed durable publish still leaves
// the entry readable in memory; the failure is only visible operationally,
// via the linksynthd_cache_put_errors_total counter.
func (s *Server) storeResult(key cache.Key, body []byte) {
	if err := s.cache.Put(key, body); err != nil {
		s.cachePutFails.Add(1)
	}
}

// acquire claims a solver slot, queueing up to queueDepth waiters; beyond
// that the server sheds load with errBusy instead of building an unbounded
// backlog.
func (s *Server) acquire(ctx context.Context) error {
	if int(s.waiting.Add(1)) > s.queueDepth+s.nWorkers {
		s.waiting.Add(-1)
		s.rejectedBusy.Add(1)
		return errBusy
	}
	defer s.waiting.Add(-1)
	select {
	case s.solveSem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-s.shutdown:
		return errBusy
	}
}

func (s *Server) release() { <-s.solveSem }

// retireLocked records a job as finished and expires the oldest finished
// jobs beyond the retention bound, so long-lived servers do not accumulate
// every job's results forever. Finished jobs stay pollable until 4x the
// queue depth of newer jobs have finished after them. Caller holds s.mu.
func (s *Server) retireLocked(j *job) {
	s.finished = append(s.finished, j.id)
	for len(s.finished) > 4*s.queueDepth {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
}

// handleHealthz reports liveness and, in a cluster, this node's identity
// and its view of every peer — the same endpoint the peers' probers hit.
func (s *Server) handleHealthz(w http.ResponseWriter) {
	resp := map[string]any{"status": "ok"}
	if s.clu != nil {
		resp["node"] = s.clu.Self()
		resp["peers"] = s.clu.Snapshot()
		// The member view rides on every probe response: this is the gossip
		// payload that converges joins and leaves across the cluster.
		resp["members"] = s.clu.Members()
		resp["epoch"] = s.clu.Epoch()
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleMetrics renders the Prometheus scrape. Families are accumulated
// into an obsv.Exposition and emitted sorted by name with HELP/TYPE
// headers, so two scrapes observing the same values are byte-identical —
// the ordering is part of the endpoint's contract (tests and the CI
// exposition check rely on it). ?format=json serves the same families as
// JSON, which is what the /debug/cluster fan-out asks peers for.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	e := s.metricsExposition()
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, http.StatusOK, e.Families())
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(e.Render()))
}

// metricsExposition gathers this node's families; handleMetrics serves
// them, and /debug/cluster merges them with the peers' in process.
func (s *Server) metricsExposition() *obsv.Exposition {
	cs := s.cache.Stats()
	s.mu.Lock()
	nJobs := len(s.jobs)
	queued := len(s.jobQueue)
	s.mu.Unlock()
	var e obsv.Exposition
	counter := func(name string, v uint64, help string) {
		e.Counter("linksynthd_"+name, help, v)
	}
	gauge := func(name string, v int64, help string) {
		e.Gauge("linksynthd_"+name, help, v)
	}
	bi := obsv.BuildInfo()
	e.Info("linksynthd_build_info", "build metadata of the running binary; value is constant 1", map[string]string{
		"goversion": bi.GoVersion,
		"modified":  bi.Modified,
		"revision":  bi.Revision,
		"version":   bi.Version,
	})
	for _, h := range s.obs.Histograms() {
		e.Histogram(h)
	}
	gauge("flight_traces", int64(s.obs.Recorder.Len()), "traces resident in the flight-recorder ring")
	counter("flight_recorded_total", s.obs.Recorder.Recorded(), "completed traces recorded")
	snaps, snapErrs := s.obs.Recorder.SnapshotStats()
	counter("flight_snapshots_total", snaps, "failed traces snapshotted to disk")
	counter("flight_snapshot_errors_total", snapErrs, "trace snapshots that could not be written")
	counter("flight_snapshots_pruned_total", s.obs.Recorder.Pruned(), "trace snapshot files deleted by the retention cap")
	if s.pool != nil {
		ps := s.pool.Stats()
		gauge("pool_busy", int64(s.pool.Busy()), "solver pool slots held right now")
		counter("pool_claims_total", ps.Claims, "pool slots claimed for parallel dispatch")
		counter("pool_inline_total", ps.Inline, "dispatches run inline because the pool was saturated")
	}
	counter("requests_total", s.requests.Load(), "HTTP requests received")
	counter("cache_hits_total", cs.Hits, "result cache hits")
	counter("cache_misses_total", cs.Misses, "result cache misses")
	counter("cache_evictions_total", cs.Evictions, "LRU evictions")
	gauge("cache_entries", int64(cs.Entries), "live cache entries")
	gauge("cache_replayed_entries", int64(cs.Replayed), "entries loaded from result files at startup")
	counter("solver_runs_total", s.solveRuns.Load(), "instances actually solved (cache misses)")
	counter("solver_errors_total", s.solveErrors.Load(), "solver runs that failed")
	counter("cache_put_errors_total", s.cachePutFails.Load(), "results that could not be published as durable result files")
	counter("coalesced_requests_total", s.coalesced.Load(), "requests served by another request's in-flight solve")
	counter("rejected_total", s.rejectedBusy.Load(), "requests shed because the solve queue was full")
	counter("jobs_accepted_total", s.jobsAccepted.Load(), "async jobs accepted")
	counter("jobs_done_total", s.jobsDone.Load(), "async jobs finished")
	counter("jobs_canceled_total", s.jobsCanceled.Load(), "async jobs canceled")
	es := s.engine.Stats()
	counter("incr_cold_solves_total", s.incrCold.Load(), "local solves with no warm-state reuse")
	counter("incr_warm_solves_total", s.incrWarm.Load(), "local solves reusing a compiled plan or problem without splicing")
	counter("incr_partial_solves_total", s.incrPartial.Load(), "local solves splicing partitions from a warm session")
	counter("incr_delta_requests_total", s.deltaRequests.Load(), "warm-start (base+delta) requests received")
	counter("incr_session_misses_total", s.sessionMisses.Load(), "delta requests whose base had no warm session here")
	counter("incr_plan_hits_total", es.PlanHits, "compiled-plan cache hits")
	counter("incr_plan_misses_total", es.PlanMisses, "compiled-plan cache misses (plans compiled)")
	gauge("incr_sessions", int64(s.sessions.Len()), "warm solver sessions retained")
	gauge("incr_plans", int64(es.Plans), "compiled plans retained")
	gauge("jobs_known", int64(nJobs), "jobs retained in the registry")
	gauge("job_queue_depth", int64(queued), "jobs waiting to run")
	gauge("workers", int64(s.nWorkers), "solver pool size")
	gauge("uptime_seconds", int64(time.Since(s.start).Seconds()), "seconds since start")
	if s.clu != nil {
		peers := s.clu.Snapshot()
		up := 0
		for _, p := range peers {
			if p.Up {
				up++
			}
		}
		gauge("cluster_members", int64(len(s.clu.Nodes())), "live members in the gossiped view (self included)")
		gauge("cluster_membership_epoch", int64(s.clu.Epoch()), "highest membership epoch observed (logical clock over joins and leaves)")
		gauge("cluster_peers_known", int64(len(peers)), "remote members known to this node")
		gauge("cluster_peers_up", int64(up), "peers currently believed up")
		counter("cluster_probes_total", s.clu.Probes(), "individual peer health probes run")
		counter("cluster_probes_stale_total", s.clu.StaleProbes(), "probe results discarded by the liveness generation guard")
		counter("cluster_transitions_total", s.clu.Transitions(), "peer up/down state changes observed")
		counter("cluster_forwarded_total", s.forwarded.Load(), "solves relayed to their owning node")
		counter("cluster_forward_fallbacks_total", s.forwardFallbacks.Load(), "forward attempts that failed (peer down or 5xx)")
		counter("cluster_forward_exhausted_total", s.forwardExhausted.Load(), "solves rejected 503 after the whole successor chain failed")
		counter("cluster_hop_served_total", s.hopServed.Load(), "hop-guarded requests answered locally")
		counter("cluster_scatter_jobs_total", s.scatterJobs.Load(), "batch jobs scattered across the cluster")
		counter("cluster_gather_fallbacks_total", s.gatherFallbacks.Load(), "scattered groups re-solved locally after a peer failure")
		counter("cluster_replica_pushed_total", s.replicaPushed.Load(), "cache entries and store files pushed to ring-successors")
		counter("cluster_replica_ingested_total", s.replicaIngested.Load(), "pushed cache entries and store files accepted from peers")
		counter("cluster_replica_served_total", s.replicaServed.Load(), "cache hits satisfied by a replicated entry")
		counter("cluster_replica_failed_total", s.replicaFailed.Load(), "replica pushes or ingests that failed or were rejected")
		counter("cluster_failovers_total", s.failovers.Load(), "replica answers served while the key's owner was down")
		counter("cluster_sessions_migrated_total", s.sessionsMigrated.Load(), "parked sessions streamed to their new owner on membership change")
	}
	if s.store != nil {
		st := s.store.Stats()
		gauge("store_snapshot_bytes", st.SnapshotBytes, "bytes of relation snapshots on disk")
		gauge("store_session_bytes", st.SessionBytes, "bytes of session records on disk")
		gauge("store_cache_bytes", st.CacheBytes, "bytes of result-cache files on disk")
		gauge("store_snapshots", int64(st.Snapshots), "relation snapshots resident on disk")
		gauge("store_sessions", int64(st.Sessions), "session records resident on disk")
		counter("store_sessions_persisted_total", s.sessionsPersisted.Load(), "parked sessions written to the durable store")
		counter("store_sessions_restored_total", s.sessionsRestored.Load(), "sessions revived from the durable store")
		counter("store_persist_errors_total", s.persistErrors.Load(), "session persists dropped or failed")
		counter("store_restore_errors_total", s.restoreFails.Load(), "session restores refused (verification or rebuild failure)")
		counter("store_corrupt_files_total", st.CorruptFiles+uint64(cs.Quarantined), "store files quarantined after failing validation")
		counter("store_ingested_files_total", st.IngestedFiles, "store files accepted from peers")
		counter("store_handoff_fetches_total", s.handoffFetches.Load(), "warm sessions pulled from a peer")
		counter("store_handoff_served_total", s.handoffServed.Load(), "store files served to peers")
	}
	return &e
}

func wantMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method == method {
		return true
	}
	w.Header().Set("Allow", method)
	writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
	return false
}

// jsonBufPool recycles encode buffers across responses: status, error,
// metrics, and job-listing bodies are written on every request, and
// re-encoding them into a fresh allocation each time is the service's
// steadiest garbage source. Buffers are returned on every path — the
// poolleak analyzer enforces this.
var jsonBufPool = sync.Pool{
	New: func() any { return new(bytes.Buffer) },
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := jsonBufPool.Get().(*bytes.Buffer)
	defer func() {
		buf.Reset()
		jsonBufPool.Put(buf)
	}()
	// Encode before touching the ResponseWriter so an encoding failure can
	// still change the status line instead of corrupting a committed 200.
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		w.WriteHeader(http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encode appends a newline Marshal would not; trim it so bodies stay
	// byte-identical to the pre-pool encoding.
	w.Write(bytes.TrimSuffix(buf.Bytes(), []byte("\n")))
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeBusy is the admission-rejection response: 503 with a Retry-After
// hint so well-behaved clients back off instead of hammering a full queue.
func writeBusy(w http.ResponseWriter, format string, args ...any) {
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable, format, args...)
}

// writeRequestError maps request parse/validation failures onto statuses:
// 413 for an over-limit body, the carried status for apiErrors, 400 for the
// rest.
func writeRequestError(w http.ResponseWriter, err error) {
	var ae *apiError
	switch {
	case isTooLarge(err):
		writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds limit")
	case errors.As(err, &ae):
		writeError(w, ae.status, "%s", ae.msg)
	default:
		writeError(w, http.StatusBadRequest, "%v", err)
	}
}

// writeResolveError maps solve-path failures: 503 for load shedding, 499-ish
// client cancellation reported as 503, and 422 for instances the solver
// rejects or cannot complete.
func writeResolveError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errBusy):
		writeBusy(w, "server busy: solve queue full")
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		writeBusy(w, "request canceled before a solver slot freed up")
	default:
		writeError(w, http.StatusUnprocessableEntity, "solve: %v", err)
	}
}
