package service

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/store"
)

// newStoreServer stands up a server whose warm state and result cache are
// rooted in the durable-store layout under dir, exactly as linksynthd -data-dir
// wires them. Callers close the returned httptest server and Server
// themselves when the test needs an orderly "process exit" mid-test.
func newStoreServer(t *testing.T, dir string) (*Server, *httptest.Server, *store.Store) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cache.Open(st.CacheDir(), 64)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, Cache: c, Store: st})
	ts := httptest.NewServer(s)
	return s, ts, st
}

func solveBase(t *testing.T, url string) (SolveResponse, []byte) {
	t.Helper()
	resp := postJSON(t, url+"/v1/solve", SolveRequest{InstanceJSON: testInstance(0), Options: &OptionsJSON{Seed: 1}})
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("base solve status %d: %s", resp.StatusCode, body)
	}
	var sr SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	return sr, body
}

// TestRestartServesWarmWithZeroSolves is the PR's acceptance check at the
// package level: solve a base and a delta, shut the server down, stand a new
// one up over the same data directory, and re-send the delta. The restarted
// process must answer byte-identically from restored state without running
// the solver at all.
func TestRestartServesWarmWithZeroSolves(t *testing.T) {
	dir := t.TempDir()
	s1, ts1, _ := newStoreServer(t, dir)

	base, _ := solveBase(t, ts1.URL)
	resp := postJSON(t, ts1.URL+"/v1/solve", SolveRequest{Base: base.Key, Delta: testDelta()})
	deltaBody := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta status %d: %s", resp.StatusCode, deltaBody)
	}

	// Orderly shutdown: Close drains the persister queue, so the session
	// record is on disk before the "process" exits.
	ts1.Close()
	s1.Close()

	s2, ts2, _ := newStoreServer(t, dir)
	defer func() { ts2.Close(); s2.Close() }()

	resp = postJSON(t, ts2.URL+"/v1/solve", SolveRequest{Base: base.Key, Delta: testDelta()})
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta after restart: status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Linksynth-Cache"); got != "hit" {
		t.Errorf("delta after restart: cache header %q, want hit", got)
	}
	if string(body) != string(deltaBody) {
		t.Errorf("delta body after restart differs from pre-restart body")
	}
	if got := metricValue(t, ts2.URL, "solver_runs_total"); got != 0 {
		t.Errorf("solver_runs_total = %d after restart, want 0", got)
	}
	if got := metricValue(t, ts2.URL, "incr_cold_solves_total"); got != 0 {
		t.Errorf("incr_cold_solves_total = %d after restart, want 0", got)
	}
	if got := metricValue(t, ts2.URL, "store_sessions_restored_total"); got != 1 {
		t.Errorf("store_sessions_restored_total = %d, want 1", got)
	}

	// A delta never seen before the restart still solves — and warm, not
	// cold: the restored plan is found under the patched instance's
	// structural key (a row edit preserves structure; CC targets are part
	// of the structural fingerprint, so a target change would not be).
	d2 := &DeltaJSON{R1Edits: []CellEditJSON{{Row: 1, Col: "Age", Val: 33}}}
	resp = postJSON(t, ts2.URL+"/v1/solve", SolveRequest{Base: base.Key, Delta: d2})
	b2 := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh delta after restart: status %d: %s", resp.StatusCode, b2)
	}
	if got := metricValue(t, ts2.URL, "incr_cold_solves_total"); got != 0 {
		t.Errorf("fresh delta after restart classified cold; the restored plan was not adopted")
	}
}

// TestRestoredSessionTargetOnlyDelta: after a restart, the first request
// a restored session serves re-targets a CC and nothing else, so its key
// comes from the fingerprint checkpoint the session builds from the
// restored relations. The key must equal the key of the patched instance
// submitted in full, to a fresh server and to this one.
func TestRestoredSessionTargetOnlyDelta(t *testing.T) {
	dir := t.TempDir()
	s1, ts1, _ := newStoreServer(t, dir)
	base, _ := solveBase(t, ts1.URL)
	ts1.Close()
	s1.Close()

	s2, ts2, _ := newStoreServer(t, dir)
	defer func() { ts2.Close(); s2.Close() }()
	resp := postJSON(t, ts2.URL+"/v1/solve", SolveRequest{Base: base.Key, Delta: &DeltaJSON{CCTargets: map[string]int64{"0": 3}}})
	deltaBody := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta after restart: status %d: %s", resp.StatusCode, deltaBody)
	}
	if got := metricValue(t, ts2.URL, "store_sessions_restored_total"); got != 1 {
		t.Fatalf("store_sessions_restored_total = %d, want 1", got)
	}
	var warm SolveResponse
	if err := json.Unmarshal(deltaBody, &warm); err != nil {
		t.Fatal(err)
	}

	patched := testInstance(0)
	patched.Constraints = strings.Replace(patched.Constraints,
		"count(Rel = 'Owner', Area = 'Chicago') = 2", "count(Rel = 'Owner', Area = 'Chicago') = 3", 1)
	full := SolveRequest{InstanceJSON: patched, Options: &OptionsJSON{Seed: 1}}
	_, ts3 := newTestServer(t, Config{Workers: 1})
	resp = postJSON(t, ts3.URL+"/v1/solve", full)
	coldBody := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold patched solve: status %d: %s", resp.StatusCode, coldBody)
	}
	var cold SolveResponse
	if err := json.Unmarshal(coldBody, &cold); err != nil {
		t.Fatal(err)
	}
	if warm.Key != cold.Key {
		t.Errorf("delta key %s, key of the patched instance %s", warm.Key, cold.Key)
	}
	resp = postJSON(t, ts2.URL+"/v1/solve", full)
	if got := resp.Header.Get("X-Linksynth-Cache"); got != "hit" {
		t.Errorf("patched full solve after the delta: cache header %q, want hit", got)
	}
	if b := readBody(t, resp); !bytes.Equal(b, deltaBody) {
		t.Errorf("patched full solve after the delta: body differs from the delta's")
	}
}

// TestCloseFlushesPersistQueue pins the graceful-shutdown flush: every
// persist accepted before Close is on disk when Close returns.
func TestCloseFlushesPersistQueue(t *testing.T) {
	s, ts, st := newStoreServer(t, t.TempDir())
	solveBase(t, ts.URL)
	ts.Close()
	s.Close()
	fps, err := st.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(fps) != 1 {
		t.Fatalf("sessions on disk after Close = %d, want 1", len(fps))
	}
}

// TestRestartRefusesCorruptSession: a torn session record (crash mid-state)
// must yield a clean no-session 404 on the restarted node — never wrong
// bytes, never a panic — and the file must be quarantined.
func TestRestartRefusesCorruptSession(t *testing.T) {
	dir := t.TempDir()
	s1, ts1, st1 := newStoreServer(t, dir)
	base, _ := solveBase(t, ts1.URL)
	ts1.Close()
	s1.Close()

	// Tear the tail off the (only) session record.
	sessions, err := filepath.Glob(filepath.Join(st1.Dir(), "sessions", "*.sess"))
	if err != nil || len(sessions) != 1 {
		t.Fatalf("expected one session file, got %v (err %v)", sessions, err)
	}
	info, err := os.Stat(sessions[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(sessions[0], info.Size()-9); err != nil {
		t.Fatal(err)
	}

	s2, ts2, _ := newStoreServer(t, dir)
	defer func() { ts2.Close(); s2.Close() }()
	resp := postJSON(t, ts2.URL+"/v1/solve", SolveRequest{Base: base.Key, Delta: testDelta()})
	readBody(t, resp)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("delta with corrupt session: status %d, want 404", resp.StatusCode)
	}
	if got := metricValue(t, ts2.URL, "store_corrupt_files_total"); got < 1 {
		t.Errorf("store_corrupt_files_total = %d, want >= 1", got)
	}
	if _, err := os.Stat(sessions[0]); !os.IsNotExist(err) {
		t.Errorf("corrupt session file still at its published path (err %v)", err)
	}
}

// TestUpgradeRevivesOldSnapshotsCold: testdata/oldsnap holds the R1 and
// R2 snapshots of testInstance(0) as an older release wrote them, in the
// columnar format, each under its content address. A node whose session
// record names them refuses them on restore: the delta gets the
// no-session 404, both snapshots are quarantined and counted, and the
// full re-submission is served the first process's bytes. That
// re-submission is a cache hit, and the session it parks is persisted
// anew, so the store then holds just its two new snapshots, and after the
// next restart the delta restores warm.
func TestUpgradeRevivesOldSnapshotsCold(t *testing.T) {
	dir := t.TempDir()
	s1, ts1, st := newStoreServer(t, dir)
	base, body := solveBase(t, ts1.URL)
	ts1.Close()
	s1.Close()

	var key [32]byte
	if _, err := hex.Decode(key[:], []byte(base.Key)); err != nil {
		t.Fatal(err)
	}
	rec, err := st.LoadSession(key)
	if err != nil {
		t.Fatal(err)
	}
	for _, old := range []struct {
		fp   string
		into *[32]byte
	}{
		{"cfc0ac850232452462a7b1c74ab96903e303100f26c423291d47324d534b0f81", &rec.R1FP},
		{"234ca4eb4134dcd3f78a5bbacf725fa0e8aa7da8027b2ef1c173a90c0b3f04e5", &rec.R2FP},
	} {
		data, err := os.ReadFile(filepath.Join("testdata", "oldsnap", old.fp+".snap"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := hex.Decode(old.into[:], []byte(old.fp)); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Ingest(*old.into, data); err != nil {
			t.Fatalf("ingest old snapshot %s: %v", old.fp[:12], err)
		}
	}
	if err := st.PutSession(rec); err != nil {
		t.Fatal(err)
	}

	s2, ts2, _ := newStoreServer(t, dir)
	defer func() { ts2.Close(); s2.Close() }() // both closes are idempotent
	resp := postJSON(t, ts2.URL+"/v1/solve", SolveRequest{Base: base.Key, Delta: testDelta()})
	readBody(t, resp)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("delta on old snapshots: status %d, want 404", resp.StatusCode)
	}
	if got := metricValue(t, ts2.URL, "store_corrupt_files_total"); got != 2 {
		t.Errorf("store_corrupt_files_total = %d, want 2 (the old R1 and R2 snapshots)", got)
	}
	if got := metricValue(t, ts2.URL, "store_restore_errors_total"); got != 1 {
		t.Errorf("store_restore_errors_total = %d, want 1", got)
	}
	for name, fp := range map[string][32]byte{"R1": rec.R1FP, "R2": rec.R2FP} {
		if _, err := os.Stat(filepath.Join(dir, "snapshots", hex.EncodeToString(fp[:])+".snap.corrupt")); err != nil {
			t.Errorf("old %s snapshot not quarantined: %v", name, err)
		}
	}
	resp = postJSON(t, ts2.URL+"/v1/solve", SolveRequest{InstanceJSON: testInstance(0), Options: &OptionsJSON{Seed: 1}})
	if got := readBody(t, resp); resp.StatusCode != http.StatusOK || !bytes.Equal(got, body) {
		t.Fatalf("full re-submission: status %d, body equal to the first process's: %v", resp.StatusCode, bytes.Equal(got, body))
	}
	waitFor(t, "the re-parked session persisted", func() bool {
		return metricValue(t, ts2.URL, "store_sessions_persisted_total") == 1
	})
	if got := metricValue(t, ts2.URL, "store_snapshots"); got != 2 {
		t.Errorf("store_snapshots = %d after the re-parked session persisted, want 2", got)
	}
	ts2.Close()
	s2.Close()

	s3, ts3, _ := newStoreServer(t, dir)
	defer func() { ts3.Close(); s3.Close() }()
	resp = postJSON(t, ts3.URL+"/v1/solve", SolveRequest{Base: base.Key, Delta: testDelta()})
	if got := readBody(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("delta after the next restart: status %d: %s", resp.StatusCode, got)
	}
	if got := metricValue(t, ts3.URL, "store_sessions_restored_total"); got != 1 {
		t.Errorf("store_sessions_restored_total = %d after the next restart, want 1", got)
	}
}

// A result file that fails verification at startup — cut short, a flipped
// bit, or another key's file under this key's name — is quarantined and
// never served: the restarted node re-solves the key and answers with the
// bytes the first process served.
func TestRestartResolvesCorruptResultFile(t *testing.T) {
	reqs := []SolveRequest{
		{InstanceJSON: testInstance(2), Options: &OptionsJSON{Seed: 1}},
		{InstanceJSON: testInstance(3), Options: &OptionsJSON{Seed: 1}},
	}
	for _, tc := range []struct {
		name    string
		corrupt func(a, b []byte) []byte
	}{
		{"truncated", func(a, _ []byte) []byte { return a[:len(a)-7] }},
		{"bit-flipped", func(a, _ []byte) []byte { a[len(a)/2] ^= 0x01; return a }},
		{"other key", func(_, b []byte) []byte { return b }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s1, ts1, st := newStoreServer(t, dir)
			var bodies, files [2][]byte
			var paths [2]string
			for i, req := range reqs {
				resp := postJSON(t, ts1.URL+"/v1/solve", req)
				bodies[i] = readBody(t, resp)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("solve %d: status %d: %s", i, resp.StatusCode, bodies[i])
				}
				var sr SolveResponse
				if err := json.Unmarshal(bodies[i], &sr); err != nil {
					t.Fatal(err)
				}
				paths[i] = filepath.Join(st.CacheDir(), sr.Key+".res")
			}
			ts1.Close()
			s1.Close()
			for i, path := range paths {
				var err error
				if files[i], err = os.ReadFile(path); err != nil {
					t.Fatal(err)
				}
			}
			if err := os.WriteFile(paths[0], tc.corrupt(files[0], files[1]), 0o644); err != nil {
				t.Fatal(err)
			}

			s2, ts2, _ := newStoreServer(t, dir)
			defer func() { ts2.Close(); s2.Close() }()
			if got := metricValue(t, ts2.URL, "cache_replayed_entries"); got != 1 {
				t.Errorf("cache_replayed_entries = %d, want 1 (the intact file)", got)
			}
			if _, err := os.Stat(paths[0] + ".corrupt"); err != nil {
				t.Errorf("corrupt result file not quarantined: %v", err)
			}
			if got := metricValue(t, ts2.URL, "store_corrupt_files_total"); got != 1 {
				t.Errorf("store_corrupt_files_total = %d, want 1 (the quarantined result file)", got)
			}
			resp := postJSON(t, ts2.URL+"/v1/solve", reqs[0])
			body := readBody(t, resp)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("solve after restart: status %d: %s", resp.StatusCode, body)
			}
			if got := resp.Header.Get("X-Linksynth-Cache"); got != "miss" {
				t.Errorf("cache header %q, want miss: the corrupt entry was served", got)
			}
			if !bytes.Equal(body, bodies[0]) {
				t.Error("re-solved body differs from the first process's body")
			}
			if got := metricValue(t, ts2.URL, "solver_runs_total"); got != 1 {
				t.Errorf("solver_runs_total = %d, want 1", got)
			}
		})
	}
}

// TestClusterWarmHandoff: a node that never saw the base pulls the session
// record and its snapshots from a peer's durable store and answers the delta
// warm. The request carries the hop header so the receiving node serves it
// locally — the shape of traffic after ring ownership moves.
func TestClusterWarmHandoff(t *testing.T) {
	sa, tsa, _ := newStoreServer(t, t.TempDir())
	defer func() { tsa.Close(); sa.Close() }()

	base, _ := solveBase(t, tsa.URL)
	resp := postJSON(t, tsa.URL+"/v1/solve", SolveRequest{Base: base.Key, Delta: testDelta()})
	deltaBody := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta on origin: status %d: %s", resp.StatusCode, deltaBody)
	}

	// The persister is asynchronous; the handoff source must have the record
	// durable before the peer asks for it.
	deadline := time.Now().Add(5 * time.Second)
	for metricValue(t, tsa.URL, "store_sessions_persisted_total") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("session never persisted on the origin node")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Node B: own store and cache, cluster pointing at A.
	stB, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cB, err := cache.Open("", 64)
	if err != nil {
		t.Fatal(err)
	}
	sw := &swapHandler{}
	tsb := httptest.NewServer(sw)
	defer tsb.Close()
	cluB, err := cluster.New(cluster.Config{
		Self:         tsb.URL,
		Peers:        []string{tsa.URL, tsb.URL},
		PollInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	sb := New(Config{Workers: 1, Cache: cB, Store: stB, Cluster: cluB})
	defer sb.Close()
	sw.set(sb)

	// Hop-guarded delta to B: B must not forward, so it revives the session
	// via its store — which has nothing — and then via the peer fetch.
	req := SolveRequest{Base: base.Key, Delta: testDelta()}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, tsb.URL+"/v1/solve", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(cluster.HopHeader, "1")
	hresp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, hresp)
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("handoff delta: status %d: %s", hresp.StatusCode, body)
	}
	if string(body) != string(deltaBody) {
		t.Errorf("handoff delta body differs from the origin node's delta body")
	}
	if got := metricValue(t, tsb.URL, "store_handoff_fetches_total"); got != 1 {
		t.Errorf("node B store_handoff_fetches_total = %d, want 1", got)
	}
	if got := metricValue(t, tsb.URL, "store_sessions_restored_total"); got != 1 {
		t.Errorf("node B store_sessions_restored_total = %d, want 1", got)
	}
	if got := metricValue(t, tsa.URL, "store_handoff_served_total"); got < 3 {
		t.Errorf("node A store_handoff_served_total = %d, want >= 3 (session + two snapshots)", got)
	}
	if got := metricValue(t, tsb.URL, "store_ingested_files_total"); got != 3 {
		t.Errorf("node B store_ingested_files_total = %d, want 3", got)
	}
}
