package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/service"
)

// smallFamily keeps the tests fast; it has the paper family's shape.
var smallFamily = family{households: 200, areas: 6, ccs: 40, noise: 3}

// serveOne sends one request body to an in-process server.
func serveOne(t *testing.T, s *stack, body []byte) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	s.srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes()
}

func newStack(t *testing.T) *stack {
	t.Helper()
	s, err := openStack(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.close)
	return s
}

// answer wraps a body the way the closed loop records it.
func answer(body []byte) response {
	return response{status: http.StatusOK, size: len(body), digest: sha256.Sum256(body), body: body}
}

// tamper decodes a served body, edits it and re-encodes it.
func tamper(t *testing.T, body []byte, edit func(*service.SolveResponse)) []byte {
	t.Helper()
	var resp service.SolveResponse
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if err := dec.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	edit(&resp)
	out, err := json.Marshal(&resp)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestVerificationRejectsWrongAnswers(t *testing.T) {
	inst, err := smallFamily.generate(7)
	if err != nil {
		t.Fatal(err)
	}
	r := fullRequest(inst)
	good := serveOne(t, newStack(t), r.body)
	fk := func(resp *service.SolveResponse) int {
		for j, c := range resp.Result.R1Hat.Columns {
			if c.Name == inst.in.FK {
				return j
			}
		}
		t.Fatal("no FK column in r1_hat")
		return -1
	}
	cases := []struct {
		name string
		body []byte
		want string
	}{
		{"correct", good, ""},
		{"flipped FK cell", tamper(t, good, func(resp *service.SolveResponse) {
			rows := resp.Result.R1Hat.Rows
			j := fk(resp)
			for i := range rows {
				if rows[i][j] != rows[0][j] {
					rows[0][j] = rows[i][j]
					return
				}
			}
			t.Fatal("every row has the same FK")
		}), "r1_hat"},
		{"wrong key", tamper(t, good, func(resp *service.SolveResponse) {
			resp.Key = strings.Repeat("0", 64)
		}), "key"},
		{"non-zero dc_error", tamper(t, good, func(resp *service.SolveResponse) {
			resp.Result.DCError = 0.01
		}), "dc_error"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ds, err := openDigests(t.TempDir(), "cold", 1)
			if err != nil {
				t.Fatal(err)
			}
			v := newVerifier(ds)
			v.answers("timed", []*request{r}, []response{answer(c.body)}, true)
			v.finish()
			switch {
			case c.want == "" && len(v.failures) > 0:
				t.Fatalf("a correct answer failed verification: %v", v.failures)
			case c.want != "" && len(v.failures) != 1:
				t.Fatalf("want one failed check, got %v", v.failures)
			case c.want != "" && !strings.Contains(v.failures[0], c.want):
				t.Fatalf("failure %q does not mention %q", v.failures[0], c.want)
			}
		})
	}
}

// TestDigestsAcrossRuns checks that a body differing from an earlier run
// of the same seed fails verification.
func TestDigestsAcrossRuns(t *testing.T) {
	inst, err := smallFamily.generate(7)
	if err != nil {
		t.Fatal(err)
	}
	r := fullRequest(inst)
	good := serveOne(t, newStack(t), r.body)
	dir := t.TempDir()
	for i, body := range [][]byte{good, good, append(append([]byte(nil), good...), ' ')} {
		ds, err := openDigests(dir, "hit", 3)
		if err != nil {
			t.Fatal(err)
		}
		v := newVerifier(ds)
		v.answers("timed", []*request{r}, []response{answer(body)}, false)
		v.finish()
		if failed := len(v.failures) > 0; failed != (i == 2) {
			t.Fatalf("run %d: failures %v", i, v.failures)
		}
	}
}

func sequenceDigest(p *plan) [32]byte {
	h := sha256.New()
	for _, rd := range p.rounds {
		for _, r := range append(append(append([]*request(nil), rd.setup...), rd.timed...), rd.firstHit) {
			h.Write(r.body)
			h.Write(r.key[:])
		}
	}
	for _, r := range p.probe {
		h.Write(r.body)
		h.Write(r.key[:])
	}
	var d [32]byte
	h.Sum(d[:0])
	return d
}

func TestSeedDeterminesRequests(t *testing.T) {
	for _, w := range []string{"cold", "hit", "delta", "restart"} {
		var digests [3][32]byte
		for i, seed := range []int64{1, 1, 2} {
			p, err := buildPlan(smallFamily, w, seed, 1)
			if err != nil {
				t.Fatal(err)
			}
			digests[i] = sequenceDigest(p)
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: one seed gave two request sequences", w)
		}
		if digests[0] == digests[2] {
			t.Errorf("%s: seeds 1 and 2 gave the same request sequence", w)
		}
	}
}

// TestRepeatedDeltaFailsDispositions sends a delta stream against a warm
// base: unique deltas match the delta workload's plan, and a stream that
// repeats one delta is answered from the cache and fails it.
func TestRepeatedDeltaFailsDispositions(t *testing.T) {
	base, err := smallFamily.generate(11)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		variants []int
		fail     bool
	}{{[]int{0, 1, 2}, false}, {[]int{0, 1, 0}, true}} {
		s := newStack(t)
		serveOne(t, s, base.body)
		if _, err := s.settle(1); err != nil {
			t.Fatal(err)
		}
		before := s.scrape()
		for _, j := range c.variants {
			r, err := deltaRequest(base, j)
			if err != nil {
				t.Fatal(err)
			}
			serveOne(t, s, r.body)
		}
		n := len(c.variants)
		err := checkDispositions("delta", "window", deltaPlan(n), before, s.scrape())
		if (err != nil) != c.fail {
			t.Fatalf("variants %v: disposition check returned %v", c.variants, err)
		}
		if c.fail && !strings.Contains(err.Error(), "delta window: linksynthd_") {
			t.Fatalf("error %q does not name the workload and the counter", err)
		}
	}
}
