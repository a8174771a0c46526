package service

import (
	"bytes"
	"fmt"
	"io"
	"mime"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
)

// decodeSeedBody is a small full solve request; the seeds below are edits
// of it.
const decodeSeedBody = `{"r1":{"name":"Persons","columns":[{"name":"pid","type":"int"},{"name":"Rel","type":"string"},{"name":"hid","type":"int"}],` +
	`"rows":[[1,"Owner",null],[2,"Spouse",null]]},` +
	`"r2":{"name":"Housing","columns":[{"name":"hid","type":"int"},{"name":"Area","type":"string"}],"rows":[[1,"Chicago"],[2,"NYC"]]},` +
	`"k1":"pid","k2":"hid","fk":"hid","constraints":"cc: count(Rel = 'Owner', Area = 'Chicago') = 1","options":{"seed":3}}`

const decodeSeedBase = "6c0b0e6b3f7d5a4e2b8c9d1f0a3e5c7b9d2f4a6c8e0b1d3f5a7c9e2b4d6f8a0c"

// FuzzSolveRequestDecode feeds the same bytes to the typed request
// decoder and to the decoder it replaced (decode_ref_test.go), as a
// /v1/solve body and as a /v1/batch body. Both must accept or reject
// alike; a rejection must render the same response, status and body; an
// accepted instance must carry the same fingerprint and options, and an
// accepted delta the same base and flight key. The one input the old
// decoder did not reject is a relation that declares a column name twice:
// it panicked, and the typed decoder answers 400.
func FuzzSolveRequestDecode(f *testing.F) {
	f.Add(censusSolveBody(f, 1000, 901))
	f.Add(censusSolveBody(f, 8, 3))
	seed := func(old, new string) {
		if !strings.Contains(decodeSeedBody, old) {
			f.Fatalf("seed edit %q does not apply", old)
		}
		f.Add([]byte(strings.Replace(decodeSeedBody, old, new, 1)))
	}
	f.Add([]byte(decodeSeedBody))
	// Numbers json.Number.Int64 refuses, and one it takes.
	for _, n := range []string{"1.0", "1e3", "-0", "9223372036854775808", "-9223372036854775808", "1E+2"} {
		seed(`[1,"Owner",null]`, `[`+n+`,"Owner",null]`)
	}
	// Escapes, surrogate pairs (whole and lone) and invalid UTF-8.
	for _, s := range []string{`"O\"w\\nér"`, `"😀"`, `"\ud800x"`, "\"\xff\xfeOwner\"", `""`, `" <&>"`} {
		seed(`"Spouse"`, s)
	}
	// Cells of kinds no column has.
	for _, c := range []string{"true", "false", `{"a":[1,"]"]}`, `[1,[2]]`, "{}", "[]"} {
		seed(`"Spouse"`, c)
	}
	// Null rows, null and missing rows, rows of the wrong shape or kind.
	seed(`[[1,"Owner",null],[2,"Spouse",null]]`, `[null,[2,"Spouse",null]]`)
	seed(`"rows":[[1,"Owner",null],[2,"Spouse",null]]`, `"rows":null`)
	seed(`,"rows":[[1,"Owner",null],[2,"Spouse",null]]`, ``)
	seed(`[[1,"Owner",null],[2,"Spouse",null]]`, `[[1,"Owner"],[2,"Spouse",null,4]]`)
	seed(`[[1,"Owner",null],[2,"Spouse",null]]`, `[[1,"Owner",null],7]`)
	seed(`[[1,"Owner",null],[2,"Spouse",null]]`, `{"a":1}`)
	seed(`[[1,"Owner",null],[2,"Spouse",null]]`, `[[1,2,null]]`)
	seed(`[[1,"Owner",null],[2,"Spouse",null]]`, `[[1,2,null],[2,true]]`)
	seed(`[[1,"Owner",null],[2,"Spouse",null]]`, `[[1,"Owner",1.5,4],[2,"Spouse",null]]`)
	seed(`"name":"Persons"`, `"name":7`)
	// Case-variant, duplicate and unknown keys.
	seed(`"rows":[[1,"Owner",null]`, `"ROWS":[[1,"Owner",null]`)
	seed(`"k1":"pid"`, `"K1":"pid","k1":"Rel","k1":"pid","extra":[1]`)
	seed(`"rows":[[1,"Owner",null],[2,"Spouse",null]]`, `"rows":[[5,"x",null]],"rows":[[1,"Owner",null],[2,"Spouse",null]]`)
	seed(`{"name":"pid","type":"int"}`, `{"name":"pid","type":"int"},{"name":"pid","type":"int"}`)
	// Trailing bytes after the value.
	f.Add([]byte(decodeSeedBody + ` {"trailing": tru`))
	f.Add([]byte(decodeSeedBody + `]`))
	// Deltas, well-formed and not.
	f.Add([]byte(`{"base":"` + decodeSeedBase + `","delta":{"cc_targets":{"0":2,"x":1},"r1_edits":[{"row":1,"col":"Rel","val":"Child"},{"row":0,"col":"pid","val":1.5}],"r1_appends":[[3,"Owner",null],null]}}`))
	f.Add([]byte(`{"base":"` + decodeSeedBase + `","delta":{"r1_edits":[{"row":1,"col":"Rel","val":true}],"r1_appends":[[3,{"a":1},null]]}}`))
	f.Add([]byte(`{"base":"` + decodeSeedBase + `","delta":{"r1_appends":5}}`))
	f.Add([]byte(`{"base":"zz","delta":{}}`))
	// Batches.
	f.Add([]byte(`{"instances":[` + decodeSeedBody + `,` + decodeSeedBody + `],"options":{"algo":"ilp-only"}}`))
	f.Add([]byte(`{"instances":[{"r1":{"columns":[{"name":"a","type":"int"}],"rows":[["x"]]}}]}`))
	f.Add([]byte(`{"instances":{}}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		checkSolveDecode(t, body)
		checkBatchDecode(t, body)
	})
}

func jsonRequest(body []byte) *http.Request {
	r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
	r.Header.Set("Content-Type", "application/json")
	return r
}

// errorResponse renders a request error as the handlers send it.
func errorResponse(err error) string {
	rec := httptest.NewRecorder()
	writeRequestError(rec, err)
	return fmt.Sprintf("%d %s", rec.Code, rec.Body.Bytes())
}

// refCall runs a reference decode, turning a panic on a duplicate column
// name into dup.
func refCall(t *testing.T, decode func()) (dup bool) {
	defer func() {
		if v := recover(); v != nil {
			if !strings.Contains(fmt.Sprint(v), "duplicate column") {
				t.Fatalf("reference decoder panicked: %v", v)
			}
			dup = true
		}
	}()
	decode()
	return false
}

// checkRejections reports whether either decoder rejected the body, after
// checking that both did, with the same response.
func checkRejections(t *testing.T, dup bool, err, refErr error) bool {
	t.Helper()
	switch {
	case dup:
		if err == nil || !strings.HasPrefix(errorResponse(err), "400 ") || !strings.Contains(err.Error(), "duplicate column") {
			t.Fatalf("duplicate column: got %v, want a 400 naming it", err)
		}
		return true
	case err == nil && refErr == nil:
		return false
	case err == nil || refErr == nil:
		t.Fatalf("typed decoder error %v, reference error %v", err, refErr)
	}
	if got, want := errorResponse(err), errorResponse(refErr); got != want {
		t.Fatalf("rejections differ:\ngot  %s\nwant %s", got, want)
	}
	return true
}

func checkSolveDecode(t *testing.T, body []byte) {
	got, err := parseSolveRequest(jsonRequest(body))
	var want *solveParsed
	var refErr error
	dup := refCall(t, func() { want, refErr = refParseSolveRequest(body) })
	if checkRejections(t, dup, err, refErr) {
		return
	}
	if got.isDelta != want.isDelta {
		t.Fatalf("isDelta %v, reference %v", got.isDelta, want.isDelta)
	}
	if got.isDelta {
		if got.base != want.base || deltaFlightKey(got.base, got.delta) != deltaFlightKey(want.base, want.delta) {
			t.Fatalf("delta differs from the reference's")
		}
		return
	}
	if got.opt != want.opt {
		t.Fatalf("options %+v, reference %+v", got.opt, want.opt)
	}
	if mustKey(t, got.in, got.opt) != mustKey(t, want.in, want.opt) {
		t.Fatalf("fingerprint differs from the reference's")
	}
}

func checkBatchDecode(t *testing.T, body []byte) {
	_, got, opt, err := parseBatchRequest(jsonRequest(body))
	var want []jobInstance
	var refOpt core.Options
	var refErr error
	dup := refCall(t, func() { want, refOpt, refErr = refParseBatchRequest(body) })
	if checkRejections(t, dup, err, refErr) {
		return
	}
	if opt != refOpt || len(got) != len(want) {
		t.Fatalf("batch of %d under %+v, reference %d under %+v", len(got), opt, len(want), refOpt)
	}
	for i := range got {
		if got[i].key != want[i].key {
			t.Fatalf("instance %d: fingerprint differs from the reference's", i)
		}
	}
}

func mustKey(t *testing.T, in core.Input, opt core.Options) [32]byte {
	t.Helper()
	k, err := core.Fingerprint(in, opt)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// FuzzMultipartSolve feeds multipart/form-data solve requests to the
// request decoder: CSV parts through table.ReadCSVInferred, the key
// fields, constraint text and options JSON. Each input is tried twice, as
// a body built from the fuzzed parts and as raw fuzzed bytes under a
// fuzzed boundary. The decoder may not panic, every rejection renders as
// a 4xx, and every accepted request fingerprints. The seed is the
// README's CSV upload.
func FuzzMultipartSolve(f *testing.F) {
	r1, r2 := "pid,Rel,hid\n1,Owner,\n2,Owner,\n3,Spouse,\n", "hid,Area\n1,Chicago\n2,NYC\n"
	cons := "cc c1: count(Area = 'Chicago') = 2\ndc d1: deny t1.Rel = 'Owner' & t2.Rel = 'Owner'"
	readme := multipartBody(r1, r2, "pid", "hid", "hid", cons, `{"seed": 1}`, "b0undary")
	if _, err := parseSolveRequest(multipartRequest("multipart/form-data; boundary=b0undary", readme)); err != nil {
		f.Fatalf("the README's upload does not decode: %v", err)
	}
	f.Add(r1, r2, "pid", "hid", "hid", cons, "", "b0undary", readme)
	f.Add(r1, r2, "pid", "hid", "hid", cons, `{"seed": 1}`, "b0undary", readme)

	f.Fuzz(func(t *testing.T, r1, r2, k1, k2, fk, cons, opts, boundary string, raw []byte) {
		built := multipartBody(r1, r2, k1, k2, fk, cons, opts, boundary)
		checkMultipartDecode(t, "multipart/form-data; boundary="+multipartBoundary(boundary), built)
		ct := mime.FormatMediaType("multipart/form-data", map[string]string{"boundary": boundary})
		if ct == "" {
			ct = "multipart/form-data; boundary=" + boundary
		}
		checkMultipartDecode(t, ct, raw)
	})
}

// multipartBoundary returns boundary if a multipart writer takes it, and
// a fixed valid boundary otherwise.
func multipartBoundary(boundary string) string {
	if multipart.NewWriter(io.Discard).SetBoundary(boundary) != nil {
		return "b0undary"
	}
	return boundary
}

// multipartBody renders a CSV solve upload; an empty opts leaves the
// options part out.
func multipartBody(r1, r2, k1, k2, fk, cons, opts, boundary string) []byte {
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	mw.SetBoundary(multipartBoundary(boundary))
	for _, p := range []struct{ name, data string }{{"r1", r1}, {"r2", r2}} {
		w, _ := mw.CreateFormFile(p.name, p.name+".csv")
		io.WriteString(w, p.data)
	}
	mw.WriteField("k1", k1)
	mw.WriteField("k2", k2)
	mw.WriteField("fk", fk)
	mw.WriteField("constraints", cons)
	if opts != "" {
		mw.WriteField("options", opts)
	}
	mw.Close()
	return buf.Bytes()
}

// multipartRequest is a /v1/solve request under a 1 MiB body limit.
func multipartRequest(contentType string, body []byte) *http.Request {
	r := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body))
	r.Header.Set("Content-Type", contentType)
	r.Body = http.MaxBytesReader(httptest.NewRecorder(), r.Body, 1<<20)
	return r
}

func checkMultipartDecode(t *testing.T, contentType string, body []byte) {
	t.Helper()
	p, err := parseSolveRequest(multipartRequest(contentType, body))
	if err != nil {
		if resp := errorResponse(err); resp[0] != '4' {
			t.Fatalf("rejection renders as %s, want a 4xx", resp)
		}
		return
	}
	if _, err := core.Fingerprint(p.in, p.opt); err != nil {
		t.Fatalf("accepted request does not fingerprint: %v", err)
	}
}
