package main

import (
	"fmt"
	"runtime"
	"sync"
)

// deepEvery samples the deep check: every set-up body (hits and restarts
// are compared byte for byte against them) and every deepEvery-th unique
// answer of a phase are recounted and re-solved in process.
const deepEvery = 4

// verifier checks every response after the timed window and counts each
// failed check as a failed operation.
type verifier struct {
	digests  *digestStore
	ccMean   map[[32]byte]float64 // key -> mean CC error of its body
	failures []string
	deep     []deepJob
}

type deepJob struct {
	id  string
	req *request
	sb  *solveBody
}

func newVerifier(ds *digestStore) *verifier {
	return &verifier{digests: ds, ccMean: map[[32]byte]float64{}}
}

func (v *verifier) failf(format string, args ...any) {
	v.failures = append(v.failures, fmt.Sprintf(format, args...))
}

// answers checks a phase's responses and returns the mean CC error of each
// answer (0 where a check failed). Every answer must arrive with status 200
// and be byte-equal to every other body of its key; the first body of a key
// is decoded and checked, and deep-checked when deepAll is set or it falls
// in the sample.
func (v *verifier) answers(phase string, reqs []*request, resps []response, deepAll bool) []float64 {
	means := make([]float64, len(reqs))
	for i, r := range reqs {
		id := fmt.Sprintf("%s/%d", phase, i)
		resp := resps[i]
		if resp.err != nil {
			v.failf("%s: %v", id, resp.err)
			continue
		}
		if err := v.digests.note(r.key, resp.digest); err != nil {
			v.failf("%s: %v", id, err)
			continue
		}
		if m, ok := v.ccMean[r.key]; ok {
			means[i] = m
			continue
		}
		if resp.body == nil {
			v.failf("%s: first body of its key was not kept for verification", id)
			continue
		}
		mean, sb, err := checkBody(r, resp.body)
		if err != nil {
			v.failf("%s: %v", id, err)
			continue
		}
		v.ccMean[r.key], means[i] = mean, mean
		if deepAll || i%deepEvery == 0 {
			v.deep = append(v.deep, deepJob{id: id, req: r, sb: sb})
		}
	}
	return means
}

// finish runs the queued deep checks, one worker per CPU, and saves the
// digests for later runs of the seed.
func (v *verifier) finish() {
	errs := make([]error, len(v.deep))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = checkDeep(v.deep[i].req, v.deep[i].sb)
			}
		}()
	}
	for i := range v.deep {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			v.failf("%s: %v", v.deep[i].id, err)
		}
	}
	if err := v.digests.save(); err != nil {
		v.failf("save digests: %v", err)
	}
}
