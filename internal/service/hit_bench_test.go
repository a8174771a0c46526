package service

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
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
