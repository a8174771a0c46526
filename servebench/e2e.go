package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// firstHitRestarts is how many times each cold, hit or delta round
// restarts its child after its share of the window, to time exec to first
// hit on that round's data directory.
const firstHitRestarts = 2

// On the reference virtual machine the hypervisor now and then steals a
// tenth of the guest's CPU time or more for several seconds: every
// wall-clock metric of a round caught in such a stretch reads 20-40 % slow,
// and p90 most. /proc/stat counts the stolen time, so once every round has
// run, the round whose window lost the largest share of the host's CPU
// time, if above stealLimit, is redone on a fresh child and data
// directory, and so on, each round at most redosPerRound times and none
// begun later than redoBefore after the first round began, which bounds
// the run's length. A redo replaces the round's samples when less was
// stolen from it; every attempt is verified.
const (
	stealLimit    = 0.03
	redosPerRound = 2
	redoBefore    = 24 * time.Second
)

// e2eRun is the untraced run: the real linksynthd binary as a child
// process, driven over loopback HTTP by a closed loop.
type e2eRun struct {
	bin     string
	dir     string // this run's scratch directory
	p       *plan
	v       *verifier
	seq     int
	results []*roundResult // the kept attempt of each round
	redone  []string       // report lines of the redone rounds
	sent    int            // timed requests and first hits of every attempt
}

// roundResult is what one attempt at a round measured.
type roundResult struct {
	setupS   float64
	lat      []float64 // ms, timed requests
	cc       []float64 // mean CC error per timed answer
	size     []float64 // body bytes per timed answer
	window   time.Duration
	cpuMs    float64
	rss      []float64
	firstHit []float64 // ms
	steal    ticks     // host CPU time over the timed requests
}

func (r *roundResult) stolen() float64 { return r.steal.share() }

func (e *e2eRun) freshDir() string {
	e.seq++
	return filepath.Join(e.dir, fmt.Sprintf("data%d", e.seq))
}

func (e *e2eRun) run() error {
	start := time.Now()
	e.results = make([]*roundResult, len(e.p.rounds))
	for k := range e.p.rounds {
		res, err := e.round(k, "")
		if err != nil {
			return err
		}
		e.results[k] = res
	}
	tried := make([]int, len(e.results))
	for time.Since(start) < redoBefore {
		k := -1
		for j, res := range e.results {
			if tried[j] < redosPerRound && res.stolen() > stealLimit && (k < 0 || res.stolen() > e.results[k].stolen()) {
				k = j
			}
		}
		if k < 0 {
			break
		}
		tried[k]++
		res, err := e.round(k, fmt.Sprintf("redo%d-", tried[k]))
		if err != nil {
			return err
		}
		e.redone = append(e.redone, fmt.Sprintf("round %d: %.1f %% stolen, redo %.1f %%",
			k, 100*e.results[k].stolen(), 100*res.stolen()))
		if res.stolen() < e.results[k].stolen() {
			e.results[k] = res
		}
	}
	return nil
}

// round runs one attempt at round k on a fresh child and data directory.
func (e *e2eRun) round(k int, attempt string) (*roundResult, error) {
	rd := &e.p.rounds[k]
	res := &roundResult{}
	id := fmt.Sprintf("%sround-%d", attempt, k)
	c, dir, err := e.setUp(id, rd, res)
	if err != nil {
		return nil, err
	}
	if e.p.workload == "restart" {
		err = e.restarts(id, dir, rd, res)
	} else {
		err = e.timedShare(id, c, dir, rd, res)
	}
	c.stop()
	return res, err
}

// setUp starts a child on a fresh data directory and performs the
// workload's warm-up: the set-up requests, then drained persistence. The
// restart workload also stops the child, leaving a settled directory.
func (e *e2eRun) setUp(id string, rd *round, res *roundResult) (*child, string, error) {
	dir := e.freshDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, "", err
	}
	t0 := time.Now()
	c, err := startChild(e.bin, dir)
	if err != nil {
		return nil, "", err
	}
	before, err := c.scrape()
	if err != nil {
		c.stop()
		return nil, "", err
	}
	resps, _ := sendAll(c.client, c.url, rd.setup, func(int) bool { return true })
	after, err := c.settle(len(rd.setup))
	if err == nil {
		err = checkDispositions(e.p.workload, "set-up", solvePlan(len(rd.setup), 0, 0), before, after)
	}
	if err == nil && e.p.workload == "restart" {
		err = c.stop()
	}
	if err != nil {
		c.stop()
		return nil, "", err
	}
	res.setupS = time.Since(t0).Seconds()
	e.v.answers(id+"/setup", rd.setup, resps, true)
	return c, dir, nil
}

// settle waits until the child has persisted want sessions — background
// persistence has drained — and returns the scrape that showed it.
func (c *child) settle(want int) (counters, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		m, err := c.scrape()
		if err != nil {
			return nil, err
		}
		got := m["linksynthd_store_sessions_persisted_total"] + m["linksynthd_store_persist_errors_total"]
		if got >= float64(want) {
			return m, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("persistence did not drain: %v of %d sessions persisted", got, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// measure sends one timed phase to c and books its latencies, CPU time,
// peak RSS and the host's stolen time into res. settleTo is the
// persisted-session count that marks background persistence drained at the
// phase's close; want is its disposition plan.
func (e *e2eRun) measure(c *child, phase string, reqs []*request, settleTo int, want expect, res *roundResult) error {
	before, err := c.scrape()
	if err != nil {
		return err
	}
	cpu0, err := c.cpuMs()
	if err != nil {
		return err
	}
	keep := func(int) bool { return e.p.workload != "hit" }
	host0, err := hostTicks()
	if err != nil {
		return err
	}
	resps, wall := sendAll(c.client, c.url, reqs, keep)
	host1, err := hostTicks()
	if err != nil {
		return err
	}
	e.sent += len(reqs)
	after, err := c.settle(settleTo)
	if err != nil {
		return err
	}
	cpu1, err := c.cpuMs()
	if err != nil {
		return err
	}
	rss, err := c.peakRSSMB()
	if err != nil {
		return err
	}
	if err := checkDispositions(e.p.workload, phase, want, before, after); err != nil {
		return err
	}
	res.window += wall
	res.cpuMs += cpu1 - cpu0
	res.rss = append(res.rss, rss)
	res.steal.add(host1.sub(host0))
	for i, m := range e.v.answers(phase, reqs, resps, false) {
		res.lat = append(res.lat, ms(resps[i].dur))
		res.cc = append(res.cc, m)
		res.size = append(res.size, float64(resps[i].size))
	}
	return nil
}

// timedShare sends a round's share of the timed requests, then restarts the
// child on the round's directory to time exec to first hit.
func (e *e2eRun) timedShare(id string, c *child, dir string, rd *round, res *roundResult) error {
	reqs := rd.timed
	n := len(reqs)
	persisted, want := len(rd.setup), solvePlan(n, 0, 0)
	switch e.p.workload {
	case "cold":
		persisted += n
	case "hit":
		want = solvePlan(0, n, 0)
	case "delta":
		want = deltaPlan(n)
	}
	if err := e.measure(c, id+"/window", reqs, persisted, want, res); err != nil {
		return err
	}
	if err := c.stop(); err != nil {
		return err
	}
	for r := 0; r < firstHitRestarts; r++ {
		hc, err := e.timeFirstHit(dir, rd.firstHit, fmt.Sprintf("%s/first-hit-%d", id, r), res)
		if err != nil {
			return err
		}
		if err := hc.stop(); err != nil {
			return err
		}
	}
	return nil
}

// timeFirstHit execs a child on dir and times exec to the end of the first
// hit's body.
func (e *e2eRun) timeFirstHit(dir string, hit *request, id string, res *roundResult) (*child, error) {
	c, err := startChild(e.bin, dir)
	if err != nil {
		return nil, err
	}
	resps, _ := sendAll(c.client, c.url, []*request{hit}, func(int) bool { return false })
	res.firstHit = append(res.firstHit, ms(time.Since(c.exec)))
	e.sent++
	e.v.answers(id, []*request{hit}, resps, false)
	return c, nil
}

// restarts is the restart workload's share of the window for one round:
// each restart execs a child on a fresh copy of the populated directory,
// times exec to the first hit (cache-log replay), then sends one unique
// delta per persisted base, each of which revives its session from the
// store.
func (e *e2eRun) restarts(id string, populated string, rd *round, res *roundResult) error {
	bases, reqs := len(rd.setup), rd.timed
	for r := 0; r < rd.restarts; r++ {
		dir := e.freshDir()
		if err := copyTree(populated, dir); err != nil {
			return err
		}
		c, err := e.timeFirstHit(dir, rd.firstHit, fmt.Sprintf("%s/restart-%d/first-hit", id, r), res)
		if err != nil {
			return err
		}
		// The first hit is already booked; the plan covers the deltas.
		err = e.measure(c, fmt.Sprintf("%s/restart-%d", id, r), reqs[r*bases:(r+1)*bases], 0, solvePlan(bases, 0, bases), res)
		if serr := c.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return err
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	return nil
}
