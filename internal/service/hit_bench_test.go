package service

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"repro/internal/cache"
	"repro/internal/census"
	"repro/internal/core"
)

// censusSolveBody renders a full solve request for a member of the serving
// benchmark's census family: the given number of households in 6 areas,
// 150 S_bad_CC constraints whose targets carry two-sided geometric noise of
// scale 3, and the twelve Table-4 DCs. At 1,000 households the body is
// about 135 KB.
func censusSolveBody(tb testing.TB, households int, seed int64) []byte {
	tb.Helper()
	d := census.Generate(census.Config{Households: households, Areas: 6, Seed: seed})
	ccs := d.BadCCs(150)
	rng := rand.New(rand.NewSource(seed))
	geom := func() int64 {
		n := int64(0)
		for rng.Float64() > 1.0/(1+3) {
			n++
		}
		return n
	}
	for i := range ccs {
		ccs[i].Target += geom() - geom()
		if ccs[i].Target < 0 {
			ccs[i].Target = 0
		}
	}
	ij, err := EncodeInstance(core.Input{
		R1: d.Persons, R2: d.Housing, K1: "pid", K2: "hid", FK: "hid",
		CCs: ccs, DCs: census.AllDCs(),
	})
	if err != nil {
		tb.Fatal(err)
	}
	body, err := json.Marshal(SolveRequest{InstanceJSON: ij, Options: &OptionsJSON{Seed: 1}})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// BenchmarkServeHit times the cache-hit path of POST /v1/solve in process:
// one census instance is solved in set-up, then every iteration serves the
// same 135 KB body again. A hit decodes and fingerprints the request, looks
// the key up and writes the cached bytes, so this is the request decoder
// and the fingerprint, measured with their allocations.
func BenchmarkServeHit(b *testing.B) {
	body := censusSolveBody(b, 1000, 901)
	c, err := cache.Open("", 64)
	if err != nil {
		b.Fatal(err)
	}
	s := New(Config{Cache: c})
	defer s.Close()
	serve := func() *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		return rec
	}
	if rec := serve(); rec.Code != http.StatusOK {
		b.Fatalf("set-up solve: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := serve(); rec.Header().Get("X-Linksynth-Cache") != "hit" {
			b.Fatalf("iteration %d: status %d, cache %q", i, rec.Code, rec.Header().Get("X-Linksynth-Cache"))
		}
	}
}

// BenchmarkServeDelta times the delta path of POST /v1/solve in process,
// on the delta shape of the serving benchmark: census bases are solved in
// set-up, one per six iterations, and every iteration sends a unique
// what-if delta that raises the target of CC 1 or CC 2 of a base by j/2+1
// for its j-th delta. Each must splice a partial re-solve, so this is the
// patched fingerprint, the rebase, the partial solve, the quality measures,
// the response encoder and the cache put, measured with their allocations.
func BenchmarkServeDelta(b *testing.B) {
	const perBase = 6
	bases := (b.N + perBase - 1) / perBase
	c, err := cache.Open("", 64)
	if err != nil {
		b.Fatal(err)
	}
	s := New(Config{Cache: c, SessionEntries: bases})
	defer s.Close()
	serve := func(body []byte) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		return rec
	}
	deltas := make([][]byte, b.N)
	for k := 0; k < bases; k++ {
		body := censusSolveBody(b, 1000, 901+int64(k))
		rec := serve(body)
		if rec.Code != http.StatusOK {
			b.Fatalf("set-up solve %d: status %d: %s", k, rec.Code, rec.Body.Bytes())
		}
		var sr SolveResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
			b.Fatal(err)
		}
		p, err := parseSolveRequest(jsonRequest(body))
		if err != nil {
			b.Fatal(err)
		}
		for i := k; i < b.N; i += bases {
			j := i / bases
			cc := 1 + j%2
			deltas[i], err = json.Marshal(SolveRequest{Base: sr.Key, Delta: &DeltaJSON{
				CCTargets: map[string]int64{strconv.Itoa(cc): p.in.CCs[cc].Target + int64(j/2+1)},
			}})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := serve(deltas[i]); rec.Header().Get("X-Linksynth-Incr") != "partial" {
			b.Fatalf("delta %d: status %d, incr %q: %s", i, rec.Code, rec.Header().Get("X-Linksynth-Incr"), rec.Body.Bytes())
		}
	}
}
