package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"net/http"
	"runtime/debug"
	"sort"
	"time"
)

// response is what the client kept of one answer.
type response struct {
	status int
	dur    time.Duration // send to last body byte
	size   int
	digest [32]byte
	body   []byte // kept only when asked; hits keep the digest alone
	err    error
}

// sendAll runs reqs through a closed loop of one connection: each request
// is sent only after the previous answer was read in full. One client
// isolates each request's own path; on the reference two-core host two
// clients made every latency depend on how their requests overlapped.
// keep says which bodies to retain for verification after the window.
//
// The benchmark's own collector is off while requests are in flight: a
// collection of its heap, which holds every instance of the plan, would
// take a core from the server in the middle of a request.
func sendAll(client *http.Client, url string, reqs []*request, keep func(int) bool) ([]response, time.Duration) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	out := make([]response, len(reqs))
	var buf bytes.Buffer
	start := time.Now()
	for i, r := range reqs {
		out[i] = post(client, url, r.body, &buf)
		if keep(i) {
			out[i].body = bytes.Clone(buf.Bytes())
		}
	}
	return out, time.Since(start)
}

// post sends one solve request and times it from send to the last body
// byte. The body lands in buf, which the caller reuses across requests.
func post(client *http.Client, url string, body []byte, buf *bytes.Buffer) response {
	buf.Reset()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		return response{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	res, err := client.Do(req)
	if err != nil {
		return response{err: err}
	}
	_, err = buf.ReadFrom(res.Body)
	res.Body.Close()
	r := response{status: res.StatusCode, dur: time.Since(t0), size: buf.Len(), err: err}
	r.digest = sha256.Sum256(buf.Bytes())
	if r.err == nil && r.status != http.StatusOK {
		r.err = fmt.Errorf("status %d: %.200s", r.status, buf.Bytes())
	}
	return r
}

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
