package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
)

const testConstraints = `cc cc1: count(Rel = 'Owner', Area = 'Chicago') = 2
cc cc2: count(Rel = 'Owner', Area = 'NYC') = 1
dc oo: deny t1.Rel = 'Owner' & t2.Rel = 'Owner'`

// testInstance returns the JSON wire form of a small solvable instance.
// bump perturbs one R1 age so callers can mint distinct instances.
func testInstance(bump int64) InstanceJSON {
	r1 := &RelationJSON{
		Name: "Persons",
		Columns: []ColumnJSON{
			{Name: "pid", Type: "int"}, {Name: "Age", Type: "int"},
			{Name: "Rel", Type: "string"}, {Name: "hid", Type: "int"},
		},
		Rows: [][]any{
			{1, 70 + bump, "Owner", nil},
			{2, 25, "Owner", nil},
			{3, 24, "Spouse", nil},
			{4, 30, "Owner", nil},
		},
	}
	r2 := &RelationJSON{
		Name: "Housing",
		Columns: []ColumnJSON{
			{Name: "hid", Type: "int"}, {Name: "Area", Type: "string"},
		},
		Rows: [][]any{
			{1, "Chicago"}, {2, "Chicago"}, {3, "NYC"}, {4, "NYC"},
		},
	}
	return InstanceJSON{R1: r1, R2: r2, K1: "pid", K2: "hid", FK: "hid", Constraints: testConstraints}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Cache == nil {
		c, err := cache.Open("", 64)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Cache = c
	}
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func metricValue(t *testing.T, url, name string) int64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := string(readBody(t, resp))
	for _, line := range strings.Split(body, "\n") {
		var v int64
		if n, _ := fmt.Sscanf(line, "linksynthd_"+name+" %d", &v); n == 1 {
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, body)
	return 0
}

func TestSolveRoundTripAndCacheHitIsByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	req := SolveRequest{InstanceJSON: testInstance(0), Options: &OptionsJSON{Seed: 1}}
	resp := postJSON(t, ts.URL+"/v1/solve", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, readBody(t, resp))
	}
	if got := resp.Header.Get("X-Linksynth-Cache"); got != "miss" {
		t.Errorf("first solve cache header = %q, want miss", got)
	}
	cold := readBody(t, resp)

	var sr SolveResponse
	if err := json.Unmarshal(cold, &sr); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	if len(sr.Key) != 64 {
		t.Errorf("key = %q, want 64 hex chars", sr.Key)
	}
	if sr.Result.DCError != 0 {
		t.Errorf("DC error = %v, want 0 (solver guarantee)", sr.Result.DCError)
	}
	if len(sr.Result.R1Hat.Rows) != 4 {
		t.Fatalf("r1_hat has %d rows", len(sr.Result.R1Hat.Rows))
	}
	for i, row := range sr.Result.R1Hat.Rows {
		if row[3] == nil {
			t.Errorf("r1_hat row %d: FK still null", i)
		}
	}

	// The determinism contract: a cache hit returns the byte-identical body.
	resp2 := postJSON(t, ts.URL+"/v1/solve", req)
	if got := resp2.Header.Get("X-Linksynth-Cache"); got != "hit" {
		t.Errorf("second solve cache header = %q, want hit", got)
	}
	warm := readBody(t, resp2)
	if !bytes.Equal(cold, warm) {
		t.Error("cache hit body differs from cold solve body")
	}
	if runs := metricValue(t, ts.URL, "solver_runs_total"); runs != 1 {
		t.Errorf("solver runs = %d, want 1", runs)
	}
}

func TestMalformedDSLIs400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	inst := testInstance(0)
	inst.Constraints = "cc broken: count(Rel ==== 'Owner') = 2"
	resp := postJSON(t, ts.URL+"/v1/solve", SolveRequest{InstanceJSON: inst})
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "constraints") {
		t.Errorf("error does not mention constraints: %s", body)
	}
}

func TestUnknownKeyColumnIs400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	inst := testInstance(0)
	inst.K1 = "nope"
	resp := postJSON(t, ts.URL+"/v1/solve", SolveRequest{InstanceJSON: inst})
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "nope") {
		t.Errorf("error does not name the offending column: %s", body)
	}
}

func TestOversizedBodyIs413(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBody: 256})
	resp := postJSON(t, ts.URL+"/v1/solve", SolveRequest{InstanceJSON: testInstance(0)})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", resp.StatusCode, readBody(t, resp))
	}
	readBody(t, resp)
}

func TestConcurrentIdenticalRequestsCoalesce(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	req := SolveRequest{InstanceJSON: testInstance(1), Options: &OptionsJSON{Seed: 1}}

	const n = 4
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, err := json.Marshal(req)
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(b))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d", resp.StatusCode)
				return
			}
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()

	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("response %d differs from response 0", i)
		}
	}
	// The acceptance bar: concurrent identical requests share ONE solver run.
	if runs := metricValue(t, ts.URL, "solver_runs_total"); runs != 1 {
		t.Errorf("solver runs = %d, want 1 for %d concurrent identical requests", runs, n)
	}
}

// TestCoalescedFollowerRules pins the follower side of the one
// singleflight: a sync request parked on a flight that another path leads
// (registered here the way a batch job registers the keys it solves)
// adopts a settled body, retries and leads when the leader was canceled,
// and inherits any other leader error.
func TestCoalescedFollowerRules(t *testing.T) {
	req := SolveRequest{InstanceJSON: testInstance(1), Options: &OptionsJSON{Seed: 1}}
	key := keyOf(t, req.InstanceJSON, req.Options)
	_, ref := newTestServer(t, Config{Workers: 1})
	cold := readBody(t, postJSON(t, ref.URL+"/v1/solve", req))
	fake := []byte(`{"coalesced":true}`)
	for _, tc := range []struct {
		name   string
		body   []byte
		err    error
		status int
		cache  string // X-Linksynth-Cache of the follower's answer
		want   []byte // the follower's body; nil skips the check
		runs   int64  // solver runs on the follower's node
	}{
		{"body", fake, nil, http.StatusOK, "coalesced", fake, 0},
		{"canceled leader", nil, fmt.Errorf("batch instance 0: %w", context.Canceled), http.StatusOK, "miss", cold, 1},
		{"failed leader", nil, errors.New("core: batch instance 0: boom"), http.StatusUnprocessableEntity, "", nil, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, Config{Workers: 1})
			f, lead := s.tryLead(key)
			if !lead {
				t.Fatal("test could not claim the flight")
			}
			b, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			var resp *http.Response
			var postErr error
			done := make(chan struct{})
			go func() {
				defer close(done)
				resp, postErr = http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(b))
			}()
			waitFor(t, "the request to park on the flight", followerParked)
			s.settle(key, f, tc.body, tc.err)
			<-done
			if postErr != nil {
				t.Fatal(postErr)
			}
			got := readBody(t, resp)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, got)
			}
			if h := resp.Header.Get("X-Linksynth-Cache"); h != tc.cache {
				t.Errorf("X-Linksynth-Cache = %q, want %q", h, tc.cache)
			}
			if tc.want != nil && !bytes.Equal(got, tc.want) {
				t.Errorf("body = %s, want %s", got, tc.want)
			}
			if runs := metricValue(t, ts.URL, "solver_runs_total"); runs != tc.runs {
				t.Errorf("solver_runs_total = %d, want %d", runs, tc.runs)
			}
		})
	}
}

// followerParked reports whether some goroutine is blocked in a select
// under singleflight. With no leader running through singleflight, that is
// a follower waiting on its flight.
func followerParked() bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte(" [select")) && bytes.Contains(g, []byte(".(*Server).singleflight(")) {
			return true
		}
	}
	return false
}

func TestWarmCacheDirSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	req := SolveRequest{InstanceJSON: testInstance(2), Options: &OptionsJSON{Seed: 1}}

	c1, err := cache.Open(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Config{Cache: c1})
	ts1 := httptest.NewServer(s1)
	resp := postJSON(t, ts1.URL+"/v1/solve", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold solve: status %d: %s", resp.StatusCode, readBody(t, resp))
	}
	cold := readBody(t, resp)
	ts1.Close()
	s1.Close()
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh process against the same cache directory serves the
	// instance without re-solving.
	c2, err := cache.Open(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c2.Close() })
	s2 := New(Config{Cache: c2})
	ts2 := httptest.NewServer(s2)
	t.Cleanup(func() { ts2.Close(); s2.Close() })

	resp2 := postJSON(t, ts2.URL+"/v1/solve", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("warm solve: status %d: %s", resp2.StatusCode, readBody(t, resp2))
	}
	if got := resp2.Header.Get("X-Linksynth-Cache"); got != "hit" {
		t.Errorf("warm restart cache header = %q, want hit", got)
	}
	warm := readBody(t, resp2)
	if !bytes.Equal(cold, warm) {
		t.Error("restarted server's body differs from the original solve")
	}
	if runs := metricValue(t, ts2.URL, "solver_runs_total"); runs != 0 {
		t.Errorf("restarted server ran the solver %d times, want 0", runs)
	}
}

func TestMultipartCSVSolve(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	r1, _ := mw.CreateFormFile("r1", "persons.csv")
	io.WriteString(r1, "pid,Age,Rel,hid\n1,70,Owner,\n2,25,Owner,\n3,24,Spouse,\n4,30,Owner,\n")
	r2, _ := mw.CreateFormFile("r2", "housing.csv")
	io.WriteString(r2, "hid,Area\n1,Chicago\n2,Chicago\n3,NYC\n4,NYC\n")
	mw.WriteField("k1", "pid")
	mw.WriteField("k2", "hid")
	mw.WriteField("fk", "hid")
	mw.WriteField("constraints", testConstraints)
	mw.WriteField("options", `{"seed": 1}`)
	mw.Close()

	resp, err := http.Post(ts.URL+"/v1/solve", mw.FormDataContentType(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Result.DCError != 0 {
		t.Errorf("DC error = %v, want 0", sr.Result.DCError)
	}
	// The CSV path is content-addressed like the JSON path.
	if c := metricValue(t, ts.URL, "cache_entries"); c != 1 {
		t.Errorf("cache entries = %d, want 1", c)
	}
}

func TestBatchJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	req := BatchRequest{
		Instances: []InstanceJSON{testInstance(3), testInstance(4)},
		Options:   &OptionsJSON{Seed: 1},
	}
	resp := postJSON(t, ts.URL+"/v1/batch", req)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, want 202: %s", resp.StatusCode, body)
	}
	var js jobStatusJSON
	if err := json.Unmarshal(body, &js); err != nil {
		t.Fatal(err)
	}
	if js.ID == "" || js.Instances != 2 {
		t.Fatalf("job accept = %+v", js)
	}

	deadlineOk := false
	for i := 0; i < 400; i++ {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + js.ID)
		if err != nil {
			t.Fatal(err)
		}
		b := readBody(t, resp)
		if err := json.Unmarshal(b, &js); err != nil {
			t.Fatalf("poll decode: %v: %s", err, b)
		}
		if js.Status == jobDone {
			deadlineOk = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !deadlineOk {
		t.Fatalf("job never finished; last status %q", js.Status)
	}
	if len(js.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(js.Results))
	}
	for i, raw := range js.Results {
		var sr SolveResponse
		if err := json.Unmarshal(raw, &sr); err != nil || sr.Key == "" {
			t.Errorf("result %d not a SolveResponse: %v: %s", i, err, raw)
		}
	}

	// A second identical batch is served fully from cache.
	runsBefore := metricValue(t, ts.URL, "solver_runs_total")
	resp = postJSON(t, ts.URL+"/v1/batch", req)
	if err := json.Unmarshal(readBody(t, resp), &js); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		resp, _ := http.Get(ts.URL + "/v1/jobs/" + js.ID)
		json.Unmarshal(readBody(t, resp), &js)
		if js.Status == jobDone {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if js.Status != jobDone {
		t.Fatalf("second job stuck in %q", js.Status)
	}
	if runsAfter := metricValue(t, ts.URL, "solver_runs_total"); runsAfter != runsBefore {
		t.Errorf("second identical batch ran the solver (%d -> %d runs)", runsBefore, runsAfter)
	}
}

func TestJobNotFoundAnd405(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/jobs/job-999")
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/solve")
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/solve status = %d, want 405", resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Errorf("healthz = %d %s", resp.StatusCode, body)
	}
}

func TestBatchDeduplicatesIdenticalInstances(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	// Two copies of one instance in a single batch: one solver run, two
	// identical results.
	req := BatchRequest{
		Instances: []InstanceJSON{testInstance(5), testInstance(5)},
		Options:   &OptionsJSON{Seed: 1},
	}
	resp := postJSON(t, ts.URL+"/v1/batch", req)
	var js jobStatusJSON
	if err := json.Unmarshal(readBody(t, resp), &js); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400 && js.Status != jobDone; i++ {
		resp, _ := http.Get(ts.URL + "/v1/jobs/" + js.ID)
		json.Unmarshal(readBody(t, resp), &js)
		time.Sleep(5 * time.Millisecond)
	}
	if js.Status != jobDone {
		t.Fatalf("job stuck in %q", js.Status)
	}
	if len(js.Results) != 2 || !bytes.Equal(js.Results[0], js.Results[1]) {
		t.Fatalf("duplicate instances got different results")
	}
	if runs := metricValue(t, ts.URL, "solver_runs_total"); runs != 1 {
		t.Errorf("solver runs = %d, want 1 for a batch of two identical instances", runs)
	}
}

// Batch-solved instances are local solves like any other: each one is
// classified in the incr_* counters, so the classes sum to the solver runs.
func TestBatchSolvesCountIncrClasses(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp := postJSON(t, ts.URL+"/v1/batch", BatchRequest{
		Instances: []InstanceJSON{testInstance(6), testInstance(7)},
		Options:   &OptionsJSON{Seed: 1},
	})
	var js jobStatusJSON
	if err := json.Unmarshal(readBody(t, resp), &js); err != nil {
		t.Fatal(err)
	}
	waitJobDone(t, ts.URL, js.ID)
	runs := metricValue(t, ts.URL, "solver_runs_total")
	classes := metricValue(t, ts.URL, "incr_cold_solves_total") +
		metricValue(t, ts.URL, "incr_warm_solves_total") +
		metricValue(t, ts.URL, "incr_partial_solves_total")
	if runs != 2 || classes != runs {
		t.Errorf("solver_runs_total = %d and incr classes sum to %d, want 2 and 2", runs, classes)
	}
}

// Load shedding is a protocol, not just an error: a full admission queue
// answers 503 with a Retry-After hint so clients back off politely.
func TestBusyRejectionHasRetryAfter(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	// Occupy the only solver slot, then park two distinct requests in the
	// admission queue (capacity queueDepth+nWorkers = 2); the next request
	// must be shed.
	s.solveSem <- struct{}{}
	var wg sync.WaitGroup
	for i := int64(0); i < 2; i++ {
		wg.Add(1)
		go func(bump int64) {
			defer wg.Done()
			b, _ := json.Marshal(SolveRequest{InstanceJSON: testInstance(40 + bump)})
			resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(b))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(i)
	}
	waitersReady := false
	for i := 0; i < 1000; i++ {
		if s.waiting.Load() == 2 {
			waitersReady = true
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !waitersReady {
		t.Fatalf("admission queue never filled (waiting=%d)", s.waiting.Load())
	}

	resp := postJSON(t, ts.URL+"/v1/solve", SolveRequest{InstanceJSON: testInstance(49)})
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got == "" {
		t.Error("503 rejection missing Retry-After header")
	}

	<-s.solveSem // release the slot; parked requests drain
	wg.Wait()
}

func TestJobListEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	type listJSON struct {
		Jobs  []jobStatusJSON `json:"jobs"`
		Count int             `json:"count"`
	}
	var list listJSON
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(readBody(t, resp), &list); err != nil {
		t.Fatal(err)
	}
	if list.Count != 0 || len(list.Jobs) != 0 {
		t.Fatalf("fresh server job list = %+v", list)
	}

	var ids []string
	for n := int64(0); n < 2; n++ {
		resp := postJSON(t, ts.URL+"/v1/batch", BatchRequest{Instances: []InstanceJSON{testInstance(50 + n)}})
		var js jobStatusJSON
		if err := json.Unmarshal(readBody(t, resp), &js); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, js.ID)
	}

	done := false
	for i := 0; i < 400 && !done; i++ {
		resp, err := http.Get(ts.URL + "/v1/jobs")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(readBody(t, resp), &list); err != nil {
			t.Fatal(err)
		}
		done = list.Count == 2
		for _, j := range list.Jobs {
			if j.Status != jobDone {
				done = false
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !done {
		t.Fatalf("job list never settled: %+v", list)
	}
	for i, j := range list.Jobs {
		if j.ID != ids[i] {
			t.Errorf("job list order: position %d = %s, want %s (creation order)", i, j.ID, ids[i])
		}
		if j.Instances != 1 {
			t.Errorf("job %s instances = %d, want 1", j.ID, j.Instances)
		}
		if len(j.Results) != 0 {
			t.Errorf("job list leaked result bodies for %s", j.ID)
		}
	}

	// The collection endpoint is read-only.
	postResp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, postResp)
	if postResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/jobs status = %d, want 405", postResp.StatusCode)
	}
}

func TestFinishedJobsExpireBeyondRetention(t *testing.T) {
	_, ts := newTestServer(t, Config{QueueDepth: 1}) // retention = 4 finished jobs
	req := BatchRequest{Instances: []InstanceJSON{testInstance(6)}}
	var first string
	for n := 0; n < 6; n++ {
		resp := postJSON(t, ts.URL+"/v1/batch", req)
		var js jobStatusJSON
		if err := json.Unmarshal(readBody(t, resp), &js); err != nil {
			t.Fatal(err)
		}
		if first == "" {
			first = js.ID
		}
		for i := 0; i < 400 && js.Status != jobDone; i++ {
			resp, _ := http.Get(ts.URL + "/v1/jobs/" + js.ID)
			json.Unmarshal(readBody(t, resp), &js)
			time.Sleep(5 * time.Millisecond)
		}
		if js.Status != jobDone {
			t.Fatalf("job %d stuck in %q", n, js.Status)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + first)
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("oldest finished job still pollable (status %d), want 404 after retention", resp.StatusCode)
	}
}
