package service

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/store"
)

// solveForSeed has src solve one /v1/solve request body and returns the
// canonical response body and its key.
func solveForSeed(tb testing.TB, src *Server, req []byte) ([]byte, cache32) {
	tb.Helper()
	r := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(req))
	r.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	src.ServeHTTP(rec, r)
	var resp SolveResponse
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil {
		tb.Fatalf("seed solve: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	var key cache32
	if n, err := hex.Decode(key[:], []byte(resp.Key)); err != nil || n != len(key) {
		tb.Fatalf("seed solve: key %q", resp.Key)
	}
	return rec.Body.Bytes(), key
}

// FuzzPushGate feeds arbitrary bytes under an arbitrary claimed
// fingerprint to POST /v1/store/, the one gate for state a peer pushes,
// on a clustered node with a data directory. The gate may not panic. It
// accepts a result file only if the file's key section and its body's
// embedded key both equal the claim and the body is canonical, and the
// cache then holds exactly that body. It accepts any other file exactly
// when store.Ingest does. A rejection is a 4xx and leaves the cache and
// the store as they were.
func FuzzPushGate(f *testing.F) {
	// Genuine warm state to seed from: a small instance and a census one,
	// solved by a single node whose Close flushes their session records.
	srcStore, err := store.Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	srcCache, err := cache.Open("", 8)
	if err != nil {
		f.Fatal(err)
	}
	src := New(Config{Cache: srcCache, Workers: 1, Store: srcStore})
	smallReq, err := json.Marshal(SolveRequest{InstanceJSON: testInstance(0), Options: &OptionsJSON{Seed: 1}})
	if err != nil {
		f.Fatal(err)
	}
	small, key := solveForSeed(f, src, smallReq)
	census, censusKey := solveForSeed(f, src, censusSolveBody(f, 100, 5))
	src.Close()
	sess, _, err := srcStore.ReadFile(key)
	if err != nil {
		f.Fatal(err)
	}
	rec, err := srcStore.LoadSession(key)
	if err != nil {
		f.Fatal(err)
	}
	snap, _, err := srcStore.ReadFile(rec.R1FP)
	if err != nil {
		f.Fatal(err)
	}
	wrong := key
	wrong[0] ^= 0xff
	f.Add(key[:], store.EncodeResult(key, small))
	f.Add(censusKey[:], store.EncodeResult(censusKey, census))
	f.Add(rec.R1FP[:], snap)
	f.Add(key[:], sess)
	f.Add(key[:], store.EncodeResult(key, append(append([]byte{}, small...), ' ')))
	f.Add(key[:], store.EncodeResult(wrong, small))   // key section differs from the claim
	f.Add(wrong[:], store.EncodeResult(wrong, small)) // embedded key differs from the claim

	st, err := store.Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	c, err := cache.Open(st.CacheDir(), 64)
	if err != nil {
		f.Fatal(err)
	}
	clu, err := cluster.New(cluster.Config{Self: "http://127.0.0.1:1"})
	if err != nil {
		f.Fatal(err)
	}
	gate := New(Config{Cache: c, Workers: 1, Cluster: clu, Store: st})
	f.Cleanup(gate.Close)
	ref, err := store.Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, claim, data []byte) {
		var fp cache32
		copy(fp[:], claim)
		fpHex := hex.EncodeToString(claim)
		cached, wasCached := gate.cache.Get(fp)
		entries, before := gate.cache.Len(), st.Stats()
		w := httptest.NewRecorder()
		gate.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/store/"+fpHex, bytes.NewReader(data)))

		resKey, body, resErr := store.ParseResult(data)
		_, refErr := ref.Ingest(fp, data)
		if w.Code == http.StatusNoContent {
			switch {
			case len(claim) != len(fp):
				t.Fatalf("accepted a push under the malformed claim %x", claim)
			case resErr != nil && refErr != nil:
				t.Fatalf("accepted a file store.Ingest refuses: %v", refErr)
			case resErr == nil:
				var resp SolveResponse
				err := json.Unmarshal(body, &resp)
				reenc, _ := json.Marshal(resp)
				if resKey != fp || err != nil || resp.Key != fpHex || !bytes.Equal(reenc, body) {
					t.Fatal("accepted a result file that is misdirected or not canonical")
				}
				if got, ok := gate.cache.Get(fp); !ok || !bytes.Equal(got, body) {
					t.Fatal("the cache does not hold the accepted body")
				}
			}
			return
		}
		if w.Code < 400 || w.Code >= 500 {
			t.Fatalf("rejection answered %d, want a 4xx: %s", w.Code, w.Body.Bytes())
		}
		if len(claim) == len(fp) && resErr != nil && refErr == nil {
			t.Fatalf("refused a file store.Ingest accepts: %s", w.Body.Bytes())
		}
		if got, ok := gate.cache.Get(fp); ok != wasCached || !bytes.Equal(got, cached) || gate.cache.Len() != entries {
			t.Fatal("a rejected push changed the cache")
		}
		if after := st.Stats(); after != before {
			t.Fatalf("a rejected push changed the store: %+v, was %+v", after, before)
		}
	})
}
