package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obsv"
)

// Job lifecycle: queued -> running -> done | canceled. A job whose request
// fails validation is never created (the POST gets a 400 instead), and
// per-instance solver failures are reported inside a done job's results
// rather than failing the whole job.
const (
	jobQueued   = "queued"
	jobRunning  = "running"
	jobDone     = "done"
	jobCanceled = "canceled"
)

type jobInstance struct {
	in  core.Input
	key cache.Key
}

type job struct {
	id        string
	seq       uint64 // creation order, for stable /v1/jobs listings
	status    string // guarded by Server.mu
	instances []jobInstance
	opt       core.Options
	results   []json.RawMessage // per instance: SolveResponse or {"error": ...}
	ctx       context.Context
	cancel    context.CancelFunc
}

// jobStatusJSON is the wire form of GET /v1/jobs/{id}.
type jobStatusJSON struct {
	ID        string            `json:"id"`
	Status    string            `json:"status"`
	Instances int               `json:"instances"`
	Results   []json.RawMessage `json:"results,omitempty"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	var req BatchRequest
	dec := json.NewDecoder(r.Body)
	dec.UseNumber()
	if err := dec.Decode(&req); err != nil {
		writeRequestError(w, decodeErr(err))
		return
	}
	if len(req.Instances) == 0 {
		writeError(w, http.StatusBadRequest, "batch request has no instances")
		return
	}
	opt, err := req.Options.toOptions()
	if err != nil {
		writeRequestError(w, err)
		return
	}
	instances := make([]jobInstance, len(req.Instances))
	for i := range req.Instances {
		in, err := req.Instances[i].toInput()
		if err != nil {
			writeError(w, http.StatusBadRequest, "instance %d: %v", i, err)
			return
		}
		key, err := core.Fingerprint(in, opt)
		if err != nil {
			writeError(w, http.StatusBadRequest, "instance %d: fingerprint: %v", i, err)
			return
		}
		instances[i] = jobInstance{in: in, key: key}
	}

	// In a cluster, a batch that is not already a forwarded sub-batch is
	// scattered: instances split by owning node, remote groups fan out as
	// hop-guarded sub-jobs, and this node gathers the results under the
	// parent job id. A batch whose instances all hash locally (and any
	// batch on a single-node server) takes the plain local path.
	var groups []cluster.Group
	if s.clu != nil && r.Header.Get(cluster.HopHeader) == "" {
		keys := make([][32]byte, len(instances))
		for i := range instances {
			keys[i] = instances[i].key
		}
		groups = s.clu.SplitByOwner(keys)
		if len(groups) == 1 && groups[0].Self {
			groups = nil
		}
	}

	// The job runs on its own trace (the POST's trace ends with the 202),
	// adopting the edge trace's id so the acceptance and the asynchronous
	// execution — including sub-batches scattered to peers, which propagate
	// the id further — group as one distributed trace. It is recorded when
	// the job finishes (finishJob).
	traceID := obsv.FromContext(r.Context()).ID()
	if traceID == "" {
		traceID = obsv.NewID()
	}
	jobTr := obsv.NewTrace(traceID, "batch-job", s.obs.Node)
	ctx, cancel := context.WithCancel(obsv.WithTrace(context.Background(), jobTr))
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		cancel()
		writeError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	}
	s.jobSeq++
	j := &job{
		id:        fmt.Sprintf("job-%d", s.jobSeq),
		seq:       s.jobSeq,
		status:    jobQueued,
		instances: instances,
		opt:       opt,
		ctx:       ctx,
		cancel:    cancel,
	}
	if groups != nil {
		// Scatter-gather jobs coordinate in their own goroutine instead of
		// the serial job loop: a gatherer spends its time polling peers,
		// and parking it in the loop could deadlock two nodes whose parent
		// jobs each wait on a sub-job queued behind the other's parent.
		select {
		case s.gatherSem <- struct{}{}:
			s.jobs[j.id] = j
		default:
			s.mu.Unlock()
			cancel()
			s.rejectedBusy.Add(1)
			writeBusy(w, "job queue full (depth %d)", s.queueDepth)
			return
		}
		s.mu.Unlock()
		s.jobsAccepted.Add(1)
		s.scatterJobs.Add(1)
		go s.runGatherJob(j, &req, groups)
		writeJSON(w, http.StatusAccepted, jobStatusJSON{ID: j.id, Status: jobQueued, Instances: len(instances)})
		return
	}
	select {
	case s.jobQueue <- j:
		s.jobs[j.id] = j
	default:
		s.mu.Unlock()
		cancel()
		s.rejectedBusy.Add(1)
		writeBusy(w, "job queue full (depth %d)", s.queueDepth)
		return
	}
	s.mu.Unlock()
	s.jobsAccepted.Add(1)
	writeJSON(w, http.StatusAccepted, jobStatusJSON{ID: j.id, Status: jobQueued, Instances: len(instances)})
}

// jobLoop runs queued jobs one after another; each job's instances fan out
// over the shared solver pool, so a single job already saturates the
// configured parallelism and running jobs serially keeps total load bounded.
func (s *Server) jobLoop() {
	for {
		select {
		case <-s.shutdown:
			return
		case j := <-s.jobQueue:
			s.runJob(j)
		}
	}
}

func (s *Server) runJob(j *job) {
	s.mu.Lock()
	if j.status != jobQueued { // canceled while queued
		s.mu.Unlock()
		return
	}
	j.status = jobRunning
	s.mu.Unlock()

	results := make([]json.RawMessage, len(j.instances))
	idxs := make([]int, len(j.instances))
	for i := range idxs {
		idxs[i] = i
	}
	s.solveInstances(j, idxs, results)
	s.finishJob(j, results)
}

// solveInstances solves the given subset of a job's instances, writing each
// result (or error) into its slot of results. Safe for concurrent calls on
// disjoint index sets — the gather path solves the local group while
// falling back on failed remote groups. Caller owns results slot writes.
func (s *Server) solveInstances(j *job, idxs []int, results []json.RawMessage) {
	// Serve what the cache already has and dedupe the rest: identical
	// instances inside one batch solve once.
	keyIdx := make(map[cache.Key][]int) // distinct missing key -> instance indices
	var order []cache.Key
	for _, i := range idxs {
		inst := j.instances[i]
		if body, ok := s.cache.Get(inst.key); ok {
			results[i] = body
			continue
		}
		if _, seen := keyIdx[inst.key]; !seen {
			order = append(order, inst.key)
		}
		keyIdx[inst.key] = append(keyIdx[inst.key], i)
	}

	// fill writes one key's outcome into every result slot asking for it.
	fill := func(k cache.Key, body []byte, err error) {
		for _, i := range keyIdx[k] {
			if err != nil {
				results[i] = errResult("%v", err)
			} else {
				results[i] = body
			}
		}
	}

	// Partition the distinct keys: keys another request is already solving
	// are followed through resolve, the sync path's singleflight (which
	// brings its coalescing and cancellation-retry rules); the rest are led
	// by this job, registered in the inflight map so concurrent sync
	// requests coalesce onto the job's solve in turn.
	var lead, follow []cache.Key
	var flights []*flight // parallel to lead
	for _, k := range order {
		if f, isLead := s.tryLead(k); isLead {
			lead, flights = append(lead, k), append(flights, f)
		} else {
			follow = append(follow, k)
		}
	}

	if len(lead) > 0 {
		// One admission slot covers the job's whole fan-out of instances
		// over the shared pool; it is released before anything publishes.
		res := make([]*core.Result, len(lead))
		errs := make([]error, len(lead))
		admit := j.ctx.Err()
		if admit == nil {
			admit = s.acquire(j.ctx)
		}
		if admit == nil {
			s.solveRuns.Add(uint64(len(lead)))
			s.pool.ForEach(len(lead), func(b int) {
				if errs[b] = j.ctx.Err(); errs[b] == nil {
					res[b], errs[b] = core.SolveOnContext(j.ctx, j.instances[keyIdx[lead[b]][0]].in, j.opt, s.pool)
				}
			})
			s.release()
		}
		// An instance's error message is part of the job's results on the
		// wire, so its wording stays fixed.
		for b, k := range lead {
			var body []byte
			err := admit
			switch {
			case err != nil:
			case errs[b] == nil:
				s.countIncr(&res[b].Stats)
				body, err = s.publish(k, j.instances[keyIdx[k][0]].in, res[b])
			case j.ctx.Err() != nil:
				// Preserve the typed cancellation chain: sync followers
				// of this flight decide retry-vs-fail with errors.Is.
				s.solveErrors.Add(1)
				err = fmt.Errorf("batch instance %d: %w", b, j.ctx.Err())
			default:
				s.solveErrors.Add(1)
				err = fmt.Errorf("core: batch instance %d: %w", b, errs[b])
			}
			s.settle(k, flights[b], body, err)
			fill(k, body, err)
		}
	}

	for _, k := range follow {
		// The followed flight has most likely settled while this job led
		// its own keys, so the cache answers before a new flight starts.
		body, ok := s.cache.Get(k)
		var err error
		if !ok {
			body, _, err = s.resolve(j.ctx, k, j.instances[keyIdx[k][0]].in, j.opt, false)
		}
		fill(k, body, err)
	}
}

// finishJob publishes a job's results, retires it, and records its trace.
func (s *Server) finishJob(j *job, results []json.RawMessage) {
	s.mu.Lock()
	j.results = results
	if j.ctx.Err() != nil {
		j.status = jobCanceled
		s.jobsCanceled.Add(1)
	} else {
		j.status = jobDone
		s.jobsDone.Add(1)
	}
	s.retireLocked(j)
	status := j.status
	s.mu.Unlock()
	if tr := obsv.FromContext(j.ctx); tr != nil {
		tr.SetStatus(status + " " + j.id)
		s.obs.Recorder.Record(tr)
	}
	j.cancel() // release the context's resources once the job settles
}

// runGatherJob coordinates a scattered batch: every group proceeds
// concurrently — the local group solves here, each remote group rides a
// sub-job on its owning node — and the parent job finishes when all groups
// have results. A remote group whose owner fails (submit rejected, node
// died mid-job, short reply) degrades to local solving, so the batch
// completes with correct results as long as this node survives; results
// are content-addressed, so a re-solve is byte-identical to what the lost
// peer would have returned.
func (s *Server) runGatherJob(j *job, req *BatchRequest, groups []cluster.Group) {
	defer func() { <-s.gatherSem }()
	s.mu.Lock()
	if j.status != jobQueued { // canceled before coordination began
		s.mu.Unlock()
		return
	}
	j.status = jobRunning
	s.mu.Unlock()

	results := make([]json.RawMessage, len(j.instances))
	var wg sync.WaitGroup
	for _, g := range groups {
		wg.Add(1)
		go func(g cluster.Group) {
			defer wg.Done()
			if g.Self {
				s.solveInstances(j, g.Indices, results)
				return
			}
			done := obsv.FromContext(j.ctx).StartSpan("gather:" + g.Owner)
			err := s.gatherRemote(j, req, g, results)
			done()
			if err != nil {
				if j.ctx.Err() != nil {
					for _, i := range g.Indices {
						results[i] = errResult("%v", j.ctx.Err())
					}
					return
				}
				s.gatherFallbacks.Add(1)
				obsv.FromContext(j.ctx).Event("gather: owner " + g.Owner + " failed; solving group locally")
				s.solveInstances(j, g.Indices, results)
			}
		}(g)
	}
	wg.Wait()
	s.finishJob(j, results)
}

// gatherRemote runs one remote group end to end: re-marshal the group's
// instances as a sub-batch, submit it to the owner with the hop guard, poll
// the sub-job to completion, and place its results into the parent's slots.
func (s *Server) gatherRemote(j *job, req *BatchRequest, g cluster.Group, results []json.RawMessage) error {
	sub := BatchRequest{Instances: make([]InstanceJSON, len(g.Indices)), Options: req.Options}
	for bi, i := range g.Indices {
		sub.Instances[bi] = req.Instances[i]
	}
	body, err := json.Marshal(sub)
	if err != nil {
		return fmt.Errorf("encode sub-batch: %w", err)
	}
	id, err := s.clu.SubmitBatch(j.ctx, g.Owner, body)
	if err != nil {
		return err
	}
	subResults, err := s.clu.WaitJob(j.ctx, g.Owner, id)
	if err != nil {
		s.clu.CancelJob(g.Owner, id) // best-effort: don't orphan the sub-job
		return err
	}
	if len(subResults) != len(g.Indices) {
		return fmt.Errorf("owner %s returned %d results for %d instances", g.Owner, len(subResults), len(g.Indices))
	}
	for bi, i := range g.Indices {
		results[i] = subResults[bi]
	}
	return nil
}

func errResult(format string, args ...any) json.RawMessage {
	b, _ := json.Marshal(map[string]string{"error": fmt.Sprintf(format, args...)})
	return b
}

// handleJobList answers GET /v1/jobs: every job still in the registry
// (queued, running, and finished jobs inside the retention window), oldest
// first, as status summaries without result bodies — poll /v1/jobs/{id}
// for those.
func (s *Server) handleJobList(w http.ResponseWriter) {
	type row struct {
		seq uint64
		js  jobStatusJSON
	}
	s.mu.Lock()
	rows := make([]row, 0, len(s.jobs))
	for _, j := range s.jobs {
		rows = append(rows, row{j.seq, jobStatusJSON{ID: j.id, Status: j.status, Instances: len(j.instances)}})
	}
	s.mu.Unlock()
	sort.Slice(rows, func(i, k int) bool { return rows[i].seq < rows[k].seq })
	list := make([]jobStatusJSON, len(rows))
	for i, r := range rows {
		list[i] = r.js
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": list, "count": len(list)})
}

func (s *Server) handleJobGet(w http.ResponseWriter, id string) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, "no such job %q", id)
		return
	}
	resp := jobStatusJSON{ID: j.id, Status: j.status, Instances: len(j.instances)}
	if j.status == jobDone || j.status == jobCanceled {
		resp.Results = j.results
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, id string) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, "no such job %q", id)
		return
	}
	switch j.status {
	case jobDone, jobCanceled:
		status := j.status
		s.mu.Unlock()
		writeError(w, http.StatusConflict, "job %q already %s", id, status)
		return
	case jobQueued:
		j.status = jobCanceled
		s.jobsCanceled.Add(1)
		s.retireLocked(j)
	}
	j.cancel() // running jobs stop at the next instance boundary
	status := j.status
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, jobStatusJSON{ID: j.id, Status: status, Instances: len(j.instances)})
}
