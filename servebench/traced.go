package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	rtmetrics "runtime/metrics"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/incr"
	"repro/internal/metrics"
	"repro/internal/obsv"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/store"
)

// The traced run replays a workload's requests in process, in two passes
// per segment of the sequence. Pass 1 sends each request over loopback
// HTTP, one at a time, to an in-process service.Server whose ServeHTTP is
// timed into a recorder (service.handler_ms); the rest of the client's
// send-to-last-byte time is service.transport_ms. Pass 2 replays the same
// requests against a separate stack of the same packages — its own cache,
// store and incr engine — timing each layer around calls into its public
// functions, with the solver's own spans read from an obsv.Trace on the
// solve's context. For each request, service.unattributed_ms is the
// handler time the timed layers do not account for.
//
// Every per-layer value is the median over all calls the traced run made:
// set-up, timed requests, and a final probe that restarts the process and
// sends one hit and two deltas against a persisted base (the first revives
// the session from the store, the second rebases it). Layers off the
// workload's timed path therefore report their set-up or probe cost; the
// report's call counts show which.

// stack is an in-process linksynthd: store, disk-backed cache and server
// configured as the daemon's defaults configure them.
type stack struct {
	cache *cache.Cache
	srv   *service.Server
}

func openStack(dir string) (*stack, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	c, err := cache.Open(st.CacheDir(), 1024)
	if err != nil {
		return nil, err
	}
	return &stack{cache: c, srv: service.New(service.Config{Cache: c, Workers: -1, Store: st})}, nil
}

// close is the graceful shutdown: queued persists are flushed.
func (s *stack) close() {
	s.srv.Close()
	s.cache.Close()
}

func (s *stack) scrape() counters {
	rec := httptest.NewRecorder()
	s.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return parseExposition(rec.Body.Bytes())
}

func (s *stack) settle(want int) (counters, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		m := s.scrape()
		got := m["linksynthd_store_sessions_persisted_total"] + m["linksynthd_store_persist_errors_total"]
		if got >= float64(want) {
			return m, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("persistence did not drain: %v of %d sessions persisted", got, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// front is the loopback HTTP edge: it reads the request body off the
// socket first, then times the server's ServeHTTP into a recorder.
type front struct {
	target  atomic.Pointer[service.Server]
	handler atomic.Int64 // ns of the last ServeHTTP
}

func (f *front) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	in := r.Clone(r.Context())
	in.Body = io.NopCloser(bytes.NewReader(body))
	rec := httptest.NewRecorder()
	t0 := time.Now()
	f.target.Load().ServeHTTP(rec, in)
	f.handler.Store(int64(time.Since(t0)))
	for k, v := range rec.Header() {
		w.Header()[k] = v
	}
	w.WriteHeader(rec.Code)
	w.Write(rec.Body.Bytes())
}

// replay is the pass-2 stack: the same packages the server composes,
// driven directly.
type replay struct {
	st     *store.Store
	cache  *cache.Cache
	engine *incr.Engine
	pool   *sched.Pool
	sess   map[[32]byte]*incr.Session
}

func openReplay(dir string, rt *reqTrace) (*replay, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	var c *cache.Cache
	rt.time("cache.open_ms", func() { c, err = cache.Open(st.CacheDir(), 1024) })
	if err != nil {
		return nil, err
	}
	pool := sched.New(-1)
	if pool.Workers() == 1 {
		pool = nil // the server's rule: one worker takes the sequential path
	}
	return &replay{st: st, cache: c, engine: incr.NewEngine(0), pool: pool, sess: map[[32]byte]*incr.Session{}}, nil
}

// span is one layer's self time within one request.
type span struct {
	Layer      string  `json:"layer"`
	Ms         float64 `json:"ms"`
	AllocMB    float64 `json:"alloc_mb,omitempty"`
	Allocs     float64 `json:"allocs,omitempty"`
	Background bool    `json:"background,omitempty"` // off the request path (async persist)
}

// reqTrace is one replayed request: its handler and end-to-end times from
// pass 1 and its layer spans from pass 2.
type reqTrace struct {
	ID           string  `json:"id"`
	HandlerMs    float64 `json:"handler_ms"`
	E2EMs        float64 `json:"e2e_ms"`
	Unattributed float64 `json:"unattributed_ms"`
	Spans        []span  `json:"spans"`
}

func (rt *reqTrace) add(s span) { rt.Spans = append(rt.Spans, s) }

func (rt *reqTrace) time(layer string, fn func()) {
	t0 := time.Now()
	fn()
	rt.add(span{Layer: layer, Ms: ms(time.Since(t0))})
}

// allocated reads the process-wide allocation counters.
func allocated() (count, bytes uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs, m.TotalAlloc
}

const mib = 1 << 20

// solve runs one session solve under an obsv.Trace and turns the solver's
// spans into self times; the session call's own remainder (lazy plan
// compile, rebase bookkeeping, the patched fingerprint) is incr.resolve_ms.
func (rt *reqTrace) solve(fn func(ctx context.Context) (*core.Result, error)) (*core.Result, error) {
	tr := obsv.NewTrace(rt.ID, "replay", "servebench")
	ctx := obsv.WithTrace(context.Background(), tr)
	n0, b0 := allocated()
	t0 := time.Now()
	res, err := fn(ctx)
	total := ms(time.Since(t0))
	n1, b1 := allocated()
	if err != nil {
		return nil, err
	}
	sum := map[string]float64{}
	for _, s := range tr.Snapshot().Spans {
		sum[s.Name] += ms(s.Dur)
	}
	spanned := 0.0
	for _, name := range []string{"compile", "rebase", "classify", "hasse", "ilp"} {
		if d, ok := sum[name]; ok {
			rt.add(span{Layer: "core." + name + "_ms", Ms: d})
			spanned += d
		}
	}
	if p2, ok := sum["phase2"]; ok {
		rt.add(span{Layer: "core.coloring_ms", Ms: sum["coloring"]})
		rt.add(span{Layer: "core.write_back_ms", Ms: sum["write-back"]})
		rt.add(span{Layer: "core.phase2_self_ms", Ms: p2 - sum["coloring"] - sum["write-back"]})
		spanned += p2
	}
	rt.add(span{Layer: "incr.resolve_ms", Ms: total - spanned,
		Allocs: float64(n1 - n0), AllocMB: float64(b1-b0) / mib})
	return res, nil
}

// finish closes out the quality, encode and put layers every solved
// request shares with the server's encodeSolveBody and storeResult.
func (rp *replay) finish(rt *reqTrace, key [32]byte, in core.Input, res *core.Result, served []byte) (bool, error) {
	_, b0 := allocated()
	rt.time("metrics.cc_errors_ms", func() { metrics.CCErrors(res.VJoin, in.CCs) })
	rt.time("metrics.dc_error_ms", func() { metrics.DCErrorFraction(res.R1Hat, in.FK, in.DCs) })
	_, b1 := allocated()
	rt.Spans[len(rt.Spans)-1].AllocMB = float64(b1-b0) / mib
	// The encode layer is json.Marshal of the server's own response,
	// decoded back into service.SolveResponse with its cell types restored.
	var resp service.SolveResponse
	dec := json.NewDecoder(bytes.NewReader(served))
	dec.UseNumber()
	if err := dec.Decode(&resp); err != nil {
		return false, fmt.Errorf("decode served body: %w", err)
	}
	restoreNumbers(reflect.ValueOf(&resp))
	var body []byte
	var err error
	_, b0 = allocated()
	rt.time("service.encode_ms", func() { body, err = json.Marshal(&resp) })
	_, b1 = allocated()
	if err != nil {
		return false, err
	}
	rt.Spans[len(rt.Spans)-1].AllocMB = float64(b1-b0) / mib
	rt.time("cache.put_ms", func() { err = rp.cache.Put(key, body) })
	return bytes.Equal(body, served), err
}

// restoreNumbers turns the json.Numbers a UseNumber decode left in
// interface values back into the int64 (or float64) the server encoded.
func restoreNumbers(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			restoreNumbers(v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).CanSet() {
				restoreNumbers(v.Field(i))
			}
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			restoreNumbers(v.Index(i))
		}
	case reflect.Interface:
		if v.IsNil() {
			return
		}
		if n, ok := v.Interface().(json.Number); ok {
			if i, err := n.Int64(); err == nil {
				v.Set(reflect.ValueOf(i))
			} else if f, err := n.Float64(); err == nil {
				v.Set(reflect.ValueOf(f))
			}
			return
		}
		if e := v.Elem(); e.Kind() == reflect.Slice {
			restoreNumbers(e)
		}
	}
}

// full replays a full-instance request: decode, fingerprint, cache lookup,
// and on a miss open, solve, quality, encode, put and the async persist. It
// reports whether the replay encoded a body and whether that body equals
// the served one.
func (rp *replay) full(rt *reqTrace, r *request, served []byte) (encoded, same bool, err error) {
	var req service.SolveRequest
	rt.time("service.decode_ms", func() {
		dec := json.NewDecoder(bytes.NewReader(r.body))
		dec.UseNumber()
		err = dec.Decode(&req)
	})
	if err != nil {
		return false, false, err
	}
	in := r.input()
	var key [32]byte
	rt.time("core.fingerprint_ms", func() { key, err = core.Fingerprint(in, solveOpt) })
	if err != nil {
		return false, false, err
	}
	t0 := time.Now()
	_, hit := rp.cache.Get(key)
	rt.add(span{Layer: "cache.get_us", Ms: ms(time.Since(t0))})
	if hit {
		return false, false, nil
	}
	var sess *incr.Session
	rt.time("incr.open_ms", func() { sess, err = rp.engine.OpenKeyed(in, solveOpt, rp.pool, key) })
	if err != nil {
		return false, false, err
	}
	rp.sess[key] = sess
	res, err := rt.solve(sess.SolveContext)
	if err != nil {
		return false, false, err
	}
	if same, err = rp.finish(rt, key, in, res, served); err != nil {
		return true, false, err
	}
	t0 = time.Now()
	err = rp.persist(key, in, sess)
	rt.add(span{Layer: "store.persist_ms", Ms: ms(time.Since(t0)), Background: true})
	return true, same, err
}

// persist mirrors the server's session persist: both relations, then the
// session record with the resolved plan.
func (rp *replay) persist(key [32]byte, in core.Input, sess *incr.Session) error {
	r1fp, err := rp.st.PutRelation(in.R1)
	if err != nil {
		return err
	}
	r2fp, err := rp.st.PutRelation(in.R2)
	if err != nil {
		return err
	}
	return rp.st.PutSession(&store.SessionRecord{
		BaseFP: key, SFP: sess.StructuralFingerprint(), R1FP: r1fp, R2FP: r2fp,
		K1: in.K1, K2: in.K2, FK: in.FK, Opt: solveOpt, CCs: in.CCs, DCs: in.DCs, Plan: sess.Plan(),
	})
}

// delta replays a delta request: decode, the session (revived from the
// store after a restart), the patched fingerprint, the cache lookup, the
// partial re-solve, quality, encode and put.
func (rp *replay) delta(rt *reqTrace, r *request, served []byte) (bool, error) {
	var req service.SolveRequest
	var err error
	rt.time("service.decode_ms", func() {
		dec := json.NewDecoder(bytes.NewReader(r.body))
		dec.UseNumber()
		err = dec.Decode(&req)
	})
	if err != nil {
		return false, err
	}
	base := r.inst.key
	sess, ok := rp.sess[base]
	if !ok {
		if sess, err = rp.revive(rt, base); err != nil {
			return false, err
		}
	}
	d := r.incrDelta()
	var pkey [32]byte
	rt.time("incr.patched_fp_ms", func() { pkey, err = sess.PatchedFingerprint(d) })
	if err != nil {
		return false, err
	}
	t0 := time.Now()
	_, hit := rp.cache.Get(pkey)
	rt.add(span{Layer: "cache.get_us", Ms: ms(time.Since(t0))})
	if hit {
		return false, errors.New("replayed delta hit the cache; every delta must be unique")
	}
	var key [32]byte
	res, err := rt.solve(func(ctx context.Context) (*core.Result, error) {
		res, k, err := sess.ResolveContext(ctx, d)
		key = k
		return res, err
	})
	if err != nil {
		return false, err
	}
	return rp.finish(rt, key, sess.Instance(), res, served)
}

// revive mirrors the server's restore: the session record and both
// snapshots, the re-fingerprint that guards them, then plan adoption and
// the session open.
func (rp *replay) revive(rt *reqTrace, base [32]byte) (*incr.Session, error) {
	var rec *store.SessionRecord
	var in core.Input
	var err error
	rt.time("store.restore_ms", func() {
		if rec, err = rp.st.LoadSession(base); err != nil {
			return
		}
		in = core.Input{K1: rec.K1, K2: rec.K2, FK: rec.FK, CCs: rec.CCs, DCs: rec.DCs}
		if in.R1, err = rp.st.LoadRelation(rec.R1FP); err != nil {
			return
		}
		in.R2, err = rp.st.LoadRelation(rec.R2FP)
	})
	if err != nil {
		return nil, fmt.Errorf("restore session: %w", err)
	}
	var fp [32]byte
	rt.time("core.fingerprint_ms", func() { fp, err = core.Fingerprint(in, rec.Opt) })
	if err != nil || fp != base {
		return nil, fmt.Errorf("restored session does not fingerprint to its base (%v)", err)
	}
	var sess *incr.Session
	rt.time("incr.open_ms", func() {
		rp.engine.AdoptPlan(rec.Plan)
		sess, err = rp.engine.OpenKeyed(in, rec.Opt, rp.pool, base)
	})
	if err != nil {
		return nil, err
	}
	rp.sess[base] = sess
	return sess, nil
}

// segment is a stretch of the traced sequence served by one process.
type segment struct {
	name    string
	start   int // startKeep, startPopulated or startReopen
	reqs    []*request
	persist int  // sessions the server has persisted once the segment drained
	timed   bool // part of the timed window: counts toward the ratios
	want    expect
}

const (
	startKeep      = iota // keep the running process (the first segment starts one on a fresh directory)
	startPopulated        // restart on a fresh copy of the directory the set-up populated
	startReopen           // restart on the process's own directory
)

// tracedRun is the -trace 1 run.
type tracedRun struct {
	dir string
	p   *plan
	v   *verifier

	stk    *stack
	rp     *replay
	front  *front
	srv    *http.Server
	client *http.Client
	url    string

	traces   []*reqTrace
	ratio    counters // counter movements summed over the timed segments
	gcCPU    float64  // seconds of GC CPU over the timed segments' pass 1
	timedOps int
	overhead float64
	encSame  int
	encAll   int
}

func (t *tracedRun) segments() []segment {
	p := t.p
	setup, timed := p.setup(), p.timed()
	n := len(timed)
	segs := []segment{{name: "setup", reqs: setup, persist: len(setup),
		want: solvePlan(len(setup), 0, 0)}}
	switch p.workload {
	case "restart":
		for k, rd := range p.rounds {
			b := len(rd.setup)
			for j := 0; j < rd.restarts; j++ {
				segs = append(segs, segment{name: fmt.Sprintf("restart-%d-%d", k, j), start: startPopulated, timed: true,
					reqs: append([]*request{rd.firstHit}, rd.timed[j*b:(j+1)*b]...),
					want: solvePlan(b, 1, b)})
			}
		}
	default:
		s := segment{name: "timed", reqs: timed, persist: len(setup), timed: true}
		switch p.workload {
		case "cold":
			s.persist += n
			s.want = solvePlan(n, 0, 0)
		case "hit":
			s.want = solvePlan(0, n, 0)
		case "delta":
			s.want = deltaPlan(n)
		}
		segs = append(segs, s)
	}
	// The probe's first delta revives its session cold or warm, the second
	// re-solves from it; only their sum is planned.
	probe := expect{"solver_runs_total": 2, "cache_hits_total": 1, "store_sessions_restored_total": 1}
	return append(segs, segment{name: "probe", start: startReopen,
		reqs: append([]*request{p.rounds[0].firstHit}, p.probe...), want: probe})
}

func (t *tracedRun) run() error {
	f := &front{}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	t.front, t.srv = f, &http.Server{Handler: f, ReadHeaderTimeout: 10 * time.Second}
	go t.srv.Serve(l)
	defer t.srv.Close()
	t.url = "http://" + l.Addr().String()
	t.client = &http.Client{Timeout: 120 * time.Second, Transport: &http.Transport{DisableCompression: true}}
	defer t.client.CloseIdleConnections()
	defer func() {
		if t.stk != nil {
			t.stk.close()
		}
		if t.rp != nil {
			t.rp.cache.Close()
		}
	}()
	t.ratio = counters{}
	serverDir, replayDir := filepath.Join(t.dir, "server"), filepath.Join(t.dir, "replay")
	populated := [2]string{}
	for _, seg := range t.segments() {
		if err := t.startServer(seg, &serverDir, &populated[0]); err != nil {
			return err
		}
		first := len(t.traces)
		resps, err := t.serve(seg)
		if err != nil {
			return err
		}
		var openTrace reqTrace
		openTrace.ID = seg.name + "/open"
		if err := t.startReplay(seg, &replayDir, &populated[1], &openTrace); err != nil {
			return err
		}
		if len(openTrace.Spans) > 0 {
			t.traces = append(t.traces, &openTrace)
		}
		if err := t.replayAll(seg, resps, t.traces[first:first+len(seg.reqs)]); err != nil {
			return err
		}
	}
	return t.traceOverhead()
}

// startServer brings up the in-process server for a segment. After the
// set-up the process is restarted: on the restart workload from a fresh
// copy of the populated directory, and for the probe on its own directory.
func (t *tracedRun) startServer(seg segment, dir, populated *string) error {
	if t.stk != nil && seg.start != startKeep {
		t.stk.close()
		if *populated == "" {
			*populated = *dir
		}
		t.stk = nil
	}
	if seg.start == startPopulated {
		*dir = filepath.Join(t.dir, "server-"+seg.name)
		if err := copyTree(*populated, *dir); err != nil {
			return err
		}
	}
	if t.stk == nil {
		stk, err := openStack(*dir)
		if err != nil {
			return err
		}
		t.stk = stk
		t.front.target.Store(stk.srv)
	}
	return nil
}

func (t *tracedRun) startReplay(seg segment, dir, populated *string, rt *reqTrace) error {
	if t.rp != nil {
		if seg.start == startKeep {
			return nil
		}
		t.rp.cache.Close()
		if *populated == "" {
			*populated = *dir
		}
		t.rp = nil
	}
	if seg.start == startPopulated {
		*dir = filepath.Join(t.dir, "replay-"+seg.name)
		if err := copyTree(*populated, *dir); err != nil {
			return err
		}
	}
	rp, err := openReplay(*dir, rt)
	if err != nil {
		return err
	}
	if seg.start == startKeep {
		rt.Spans = nil // a fresh directory has no log to replay
	}
	t.rp = rp
	return nil
}

// serve is pass 1 for one segment.
func (t *tracedRun) serve(seg segment) ([]response, error) {
	before := t.stk.scrape()
	gc0 := gcCPUSeconds()
	resps := make([]response, len(seg.reqs))
	var buf bytes.Buffer
	for i, r := range seg.reqs {
		resps[i] = post(t.client, t.url, r.body, &buf)
		resps[i].body = bytes.Clone(buf.Bytes())
		rt := &reqTrace{ID: fmt.Sprintf("%s/%d", seg.name, i), E2EMs: ms(resps[i].dur),
			HandlerMs: ms(time.Duration(t.front.handler.Load()))}
		t.traces = append(t.traces, rt)
	}
	gc1 := gcCPUSeconds()
	after, err := t.stk.settle(seg.persist)
	if err != nil {
		return nil, err
	}
	if err := checkDispositions(t.p.workload, seg.name, seg.want, before, after); err != nil {
		return nil, err
	}
	t.v.answers(seg.name, seg.reqs, resps, seg.name == "setup")
	if seg.timed {
		t.gcCPU += gc1 - gc0
		t.timedOps += len(seg.reqs)
		for k, v := range after {
			t.ratio[k] += v - before[k]
		}
	}
	return resps, nil
}

// replayAll is pass 2 for one segment: the layer replay of each request,
// and its unattributed remainder.
func (t *tracedRun) replayAll(seg segment, resps []response, traces []*reqTrace) error {
	for i, r := range seg.reqs {
		rt := traces[i]
		encoded, same := true, false
		var err error
		if r.delta {
			same, err = t.rp.delta(rt, r, resps[i].body)
		} else {
			encoded, same, err = t.rp.full(rt, r, resps[i].body)
		}
		if err != nil {
			return fmt.Errorf("replay %s: %w", rt.ID, err)
		}
		if encoded {
			t.encAll++
			if same {
				t.encSame++
			}
		}
		rt.Unattributed = rt.HandlerMs
		for _, s := range rt.Spans {
			if !s.Background {
				rt.Unattributed -= s.Ms
			}
		}
	}
	return nil
}

// traceOverhead solves the plan's first full instances with and without an
// obsv.Trace on the context, in ABBA order after a collection, and reports
// the median per-instance ratio of their CPU time as a percentage. The
// solves run sequentially on one locked OS thread, whose CPU time is immune
// to the scheduling noise that swamps a wall-clock difference this small.
func (t *tracedRun) traceOverhead() error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var ratios []float64
	n := 0
	for _, r := range append(t.p.setup(), t.p.timed()...) {
		if r.delta || n == 8 {
			continue
		}
		n++
		runtime.GC()
		var with, without time.Duration
		for _, traced := range []bool{false, true, true, false} {
			ctx := context.Background()
			if traced {
				ctx = obsv.WithTrace(ctx, obsv.NewTrace("overhead", "solve", "servebench"))
			}
			c0, err := threadCPU()
			if err != nil {
				return err
			}
			if _, err := core.SolveOnContext(ctx, r.inst.in, solveOpt, nil); err != nil {
				return err
			}
			c1, err := threadCPU()
			if err != nil {
				return err
			}
			if traced {
				with += c1 - c0
			} else {
				without += c1 - c0
			}
		}
		ratios = append(ratios, float64(with)/float64(without))
	}
	t.overhead = (median(ratios) - 1) * 100
	return nil
}

// threadCPU is the calling OS thread's user plus system CPU time.
func threadCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// rusageThread is Linux's RUSAGE_THREAD, which package syscall does not name.
const rusageThread = 1

func gcCPUSeconds() float64 {
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() != rtmetrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// perLayer lists the per-layer metrics in report order with their units.
var perLayer = []struct{ name, unit string }{
	{"service.handler_ms", "ms"}, {"service.transport_ms", "ms"}, {"service.decode_ms", "ms"},
	{"service.encode_ms", "ms"}, {"service.encode_alloc_mb", "MiB"}, {"service.unattributed_ms", "ms"},
	{"core.fingerprint_ms", "ms"}, {"core.compile_ms", "ms"}, {"core.classify_ms", "ms"},
	{"core.hasse_ms", "ms"}, {"core.ilp_ms", "ms"}, {"core.coloring_ms", "ms"},
	{"core.write_back_ms", "ms"}, {"core.phase2_self_ms", "ms"}, {"core.rebase_ms", "ms"},
	{"core.solve_allocs", "count"}, {"core.solve_alloc_mb", "MiB"},
	{"incr.open_ms", "ms"}, {"incr.patched_fp_ms", "ms"}, {"incr.resolve_ms", "ms"}, {"incr.partial_ratio", "ratio"},
	{"metrics.cc_errors_ms", "ms"}, {"metrics.dc_error_ms", "ms"}, {"metrics.alloc_mb", "MiB"},
	{"cache.get_us", "us"}, {"cache.put_ms", "ms"}, {"cache.open_ms", "ms"}, {"cache.hit_ratio", "ratio"},
	{"store.persist_ms", "ms"}, {"store.restore_ms", "ms"},
	{"sched.inline_ratio", "ratio"}, {"runtime.gc_cpu_ms_per_op", "ms"}, {"obsv.trace_overhead_pct", "%"},
}

// outcome assembles the per-layer metrics and the traced-run report.
func (t *tracedRun) outcome() *outcome {
	samples := map[string][]float64{}
	allocMB := map[string][]float64{}
	for _, rt := range t.traces {
		for _, s := range rt.Spans {
			samples[s.Layer] = append(samples[s.Layer], s.Ms)
			if s.AllocMB != 0 {
				allocMB[s.Layer] = append(allocMB[s.Layer], s.AllocMB)
			}
			if s.Allocs != 0 {
				samples["core.solve_allocs"] = append(samples["core.solve_allocs"], s.Allocs)
			}
		}
		if rt.E2EMs > 0 {
			samples["service.handler_ms"] = append(samples["service.handler_ms"], rt.HandlerMs)
			samples["service.transport_ms"] = append(samples["service.transport_ms"], rt.E2EMs-rt.HandlerMs)
			samples["service.unattributed_ms"] = append(samples["service.unattributed_ms"], rt.Unattributed)
		}
	}
	for i := range samples["cache.get_us"] {
		samples["cache.get_us"][i] *= 1000
	}
	samples["core.solve_alloc_mb"] = allocMB["incr.resolve_ms"]
	samples["service.encode_alloc_mb"] = allocMB["service.encode_ms"]
	samples["metrics.alloc_mb"] = allocMB["metrics.dc_error_ms"]
	ratio := func(num float64, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	m := t.ratio
	single := map[string]float64{
		"cache.hit_ratio": ratio(m["linksynthd_cache_hits_total"],
			m["linksynthd_cache_hits_total"]+m["linksynthd_cache_misses_total"]),
		"incr.partial_ratio": ratio(m["linksynthd_incr_partial_solves_total"], m["linksynthd_incr_delta_requests_total"]),
		"sched.inline_ratio": ratio(m["linksynthd_pool_inline_total"],
			m["linksynthd_pool_inline_total"]+m["linksynthd_pool_claims_total"]),
		"runtime.gc_cpu_ms_per_op": t.gcCPU * 1000 / float64(t.timedOps),
		"obsv.trace_overhead_pct":  t.overhead,
	}
	o := &outcome{attempted: len(t.traces)}
	o.report = append(o.report, fmt.Sprintf("  traced replay: %d requests; encode replay reproduced %d of %d served bodies byte for byte",
		t.timedOps, t.encSame, t.encAll))
	o.report = append(o.report, fmt.Sprintf("  %-26s %6s %12s", "layer", "calls", "median"))
	for _, l := range perLayer {
		v, ok := single[l.name]
		calls := len(samples[l.name])
		if !ok {
			v = median(samples[l.name])
		}
		o.add(l.name, l.unit, v)
		o.report = append(o.report, fmt.Sprintf("  %-26s %6d %12.4f %s", l.name, calls, v, l.unit))
	}
	o.attempted = 0
	for _, rt := range t.traces {
		if rt.E2EMs > 0 {
			o.attempted++
		}
	}
	return o
}

// writeSpans writes every replayed request's spans, kept in memory until
// the run ends.
func (t *tracedRun) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(struct {
		Workload string      `json:"workload"`
		Requests []*reqTrace `json:"requests"`
	}{t.p.workload, t.traces}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
