package main

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"

	"repro/internal/census"
	"repro/internal/core"
	"repro/internal/incr"
	"repro/internal/service"
)

// family is the one instance family every workload draws from, so no
// median sits between two instance shapes.
type family struct {
	households int
	areas      int
	ccs        int     // S_bad_CC constraints: intersecting, so Hasse and ILP both run
	noise      float64 // scale of the two-sided geometric noise on CC targets
}

// paperFamily is about 1,000 households (about 3,000 persons), 150 S_bad_CC
// constraints and the twelve Table-4 DCs. The CC targets carry DP-style
// noise, the paper's privacy motivation: exact targets are met with zero
// CC error, which would leave cc_err_mean at 0 and blind to output changes.
var paperFamily = family{households: 1000, areas: 6, ccs: 150, noise: 3}

// solveOpt is the solver configuration of every request.
var solveOpt = core.Options{Seed: 1}

// deltaCCs are the CCs what-if deltas re-target: the Tenure-refined CCs of
// the first area. A small nudge to either changes only that area's
// partitions, so almost every delta splices the rest and all deltas share
// one shape and one latency mode. Nudging an Area-only CC re-solves the
// ILP globally and splices almost nothing (a second mode); so, rarely, can
// a nudge that pushes leftover tuples into other areas' combinations,
// which grows with the nudge, so nudges stay small.
var deltaCCs = [2]int{1, 2}

// instance is one generated full instance with its client-side content
// address and its solve request body.
type instance struct {
	in   core.Input
	key  [32]byte
	body []byte
}

// generate builds the family member for one census seed.
func (f family) generate(seed int64) (*instance, error) {
	d := census.Generate(census.Config{Households: f.households, Areas: f.areas, Seed: seed})
	ccs := d.BadCCs(f.ccs)
	if len(ccs) <= deltaCCs[1] {
		return nil, fmt.Errorf("census seed %d: only %d CCs", seed, len(ccs))
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range ccs {
		ccs[i].Target = perturb(rng, ccs[i].Target, f.noise)
	}
	in := core.Input{
		R1: d.Persons, R2: d.Housing,
		K1: "pid", K2: "hid", FK: "hid",
		CCs: ccs, DCs: census.AllDCs(),
	}
	key, err := core.Fingerprint(in, solveOpt)
	if err != nil {
		return nil, err
	}
	ij, err := service.EncodeInstance(in)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(service.SolveRequest{
		InstanceJSON: ij,
		Options:      &service.OptionsJSON{Seed: solveOpt.Seed},
	})
	if err != nil {
		return nil, err
	}
	return &instance{in: in, key: key, body: body}, nil
}

// perturb adds two-sided geometric noise of scale b (the integer analogue
// of Laplace noise), clamped at zero.
func perturb(rng *rand.Rand, target int64, b float64) int64 {
	if b <= 0 {
		return target
	}
	p := 1 / (1 + b)
	geom := func() int64 {
		n := int64(0)
		for rng.Float64() > p {
			n++
		}
		return n
	}
	if t := target + geom() - geom(); t > 0 {
		return t
	}
	return 0
}

// generateAll builds the family members for seeds in parallel, one worker
// per CPU, keeping seed order.
func (f family) generateAll(seeds []int64) ([]*instance, error) {
	out := make([]*instance, len(seeds))
	errs := make([]error, len(seeds))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = f.generate(seeds[i])
			}
		}()
	}
	for i := range seeds {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("instance %d: %w", i, err)
		}
	}
	return out, nil
}

// request is one HTTP solve request of a plan: a full instance, or a delta
// re-targeting one CC of a base instance.
type request struct {
	body   []byte
	key    [32]byte  // the key the response must carry: the client-side fingerprint
	inst   *instance // full requests: the instance; deltas: the base
	delta  bool
	cc     int   // deltas: the re-targeted CC
	target int64 // deltas: its new target
}

func fullRequest(inst *instance) *request {
	return &request{body: inst.body, key: inst.key, inst: inst}
}

// deltaRequest is the j-th what-if variant of base: variants alternate
// between the two delta CCs and raise the target by j/2+1, so j is unique
// per base while every nudge stays within a few units. The expected key is
// the fingerprint of the client-side patched instance.
func deltaRequest(base *instance, j int) (*request, error) {
	cc := deltaCCs[j%2]
	r := &request{inst: base, delta: true, cc: cc, target: base.in.CCs[cc].Target + int64(j/2+1)}
	key, err := core.Fingerprint(r.input(), solveOpt)
	if err != nil {
		return nil, err
	}
	r.key = key
	r.body, err = json.Marshal(service.SolveRequest{
		Base:  hex.EncodeToString(base.key[:]),
		Delta: &service.DeltaJSON{CCTargets: map[string]int64{strconv.Itoa(cc): r.target}},
	})
	return r, err
}

// incrDelta is the request's delta in the engine's form.
func (r *request) incrDelta() incr.Delta {
	return incr.Delta{CCTargets: map[int]int64{r.cc: r.target}}
}

// input is the instance the request asks to solve: the base patched by the
// delta for deltas.
func (r *request) input() core.Input {
	if !r.delta {
		return r.inst.in
	}
	in := r.inst.in
	in.CCs = append(in.CCs[:0:0], in.CCs...)
	in.CCs[r.cc].Target = r.target
	return in
}

// plan is a workload's fixed request sequence, in rounds: the untraced run
// serves each round from a fresh child on a fresh data directory.
type plan struct {
	workload string
	rounds   []round
	probe    []*request // traced runs: delta pair sent after the final restart
}

// round is one child's share of a plan.
type round struct {
	setup    []*request // sent on the round's set-up, before its window
	timed    []*request // its share of the window; on restart, restarts × len(setup) revival deltas
	restarts int        // restart only
	firstHit *request   // re-submission of a set-up instance, timed from exec
}

// setup is every round's set-up, each request once, in round order: the
// traced run warms one process with all of it.
func (p *plan) setup() []*request {
	var out []*request
	seen := map[[32]byte]bool{}
	for _, rd := range p.rounds {
		for _, r := range rd.setup {
			if !seen[r.key] {
				seen[r.key] = true
				out = append(out, r)
			}
		}
	}
	return out
}

// timed is every round's share of the window, in round order.
func (p *plan) timed() []*request {
	var out []*request
	for _, rd := range p.rounds {
		out = append(out, rd.timed...)
	}
	return out
}

// rounds is how many times an untraced run sets up a fresh child on a fresh
// data directory. Every timing is taken over nine processes spread over the
// whole run: on the reference virtual machine a process's own memory
// placement moved a single contiguous window by 10-30 %, and more rounds
// steadied the medians (hit p50 spread over ten seeds: 20-27 % with one
// round, 8 % with three, 5 % with five).
const rounds = 9

// Per-workload sizes. The request counts scale with --seconds so that on
// the reference host (2 cores) the window lasts about that long in all;
// the sequence itself never depends on timing. Delta and restart rounds
// each get bases of their own: set-ups stay short, every run spreads its
// deltas over many instances, and each base takes only a few nudges.
const (
	coldWarmups  = 3 // unmeasured cold solves in every cold set-up
	hitPool      = 8 // instances solved in every hit set-up
	deltaBases   = 4 // warm bases per delta round
	restartBases = 6 // bases persisted by each restart round's set-up
	minTimed     = 110
)

var ratePerSecond = map[string]int{"cold": 12, "hit": 80, "delta": 19, "restart": 10}

var workloadSalt = map[string]int64{"cold": 1, "hit": 2, "delta": 3, "restart": 4}

func timedCount(workload string, seconds int) int {
	if n := ratePerSecond[workload] * seconds; n > minTimed {
		return n
	}
	return minTimed
}

// share is round k's part of n requests, split into near-equal parts.
func share(n, k int) int {
	return (k+1)*n/rounds - k*n/rounds
}

// buildPlan derives a workload's inputs from the seed alone: the same seed
// gives byte-identical request sequences.
func buildPlan(f family, workload string, seed int64, seconds int) (*plan, error) {
	salt, ok := workloadSalt[workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want cold, hit, delta or restart)", workload)
	}
	rng := rand.New(rand.NewSource(seed*16 + salt))
	n := timedCount(workload, seconds)
	// Restart rounds are whole restarts, the same number in every round.
	perRestart := rounds * restartBases
	restarts := max(1, (n+perRestart/2)/perRestart)
	var nInst int
	switch workload {
	case "cold":
		nInst = coldWarmups + n
	case "hit":
		nInst = hitPool
	case "delta":
		nInst = rounds * deltaBases
	case "restart":
		nInst = rounds * restartBases
	}
	seeds := make([]int64, 0, nInst)
	seen := map[int64]bool{}
	for len(seeds) < nInst {
		if s := rng.Int63(); !seen[s] {
			seen[s] = true
			seeds = append(seeds, s)
		}
	}
	insts, err := f.generateAll(seeds)
	if err != nil {
		return nil, err
	}
	full := func(insts []*instance) []*request {
		out := make([]*request, len(insts))
		for i, in := range insts {
			out[i] = fullRequest(in)
		}
		return out
	}
	p := &plan{workload: workload, rounds: make([]round, rounds)}
	next := 0 // cold: the next never-seen instance
	for k := range p.rounds {
		rd := &p.rounds[k]
		m := share(n, k)
		switch workload {
		case "cold":
			rd.setup = full(insts[:coldWarmups])
			rd.timed = full(insts[coldWarmups+next : coldWarmups+next+m])
			next += m
		case "hit":
			// Each pass re-submits the whole pool in a fresh seeded order.
			rd.setup = full(insts)
			for len(rd.timed) < m {
				for _, i := range rng.Perm(len(insts)) {
					if len(rd.timed) < m {
						rd.timed = append(rd.timed, fullRequest(insts[i]))
					}
				}
			}
		case "delta":
			// Round robin over the round's bases, each base's variants in
			// order, so every delta is unique.
			bases := insts[k*deltaBases : (k+1)*deltaBases]
			rd.setup = full(bases)
			for i := 0; i < m; i++ {
				r, err := deltaRequest(bases[i%len(bases)], i/len(bases))
				if err != nil {
					return nil, err
				}
				rd.timed = append(rd.timed, r)
			}
		case "restart":
			// Each restart sends one delta per base.
			bases := insts[k*restartBases : (k+1)*restartBases]
			rd.setup, rd.restarts = full(bases), restarts
			for j := 0; j < restarts; j++ {
				for _, in := range bases {
					r, err := deltaRequest(in, j)
					if err != nil {
						return nil, err
					}
					rd.timed = append(rd.timed, r)
				}
			}
		}
		rd.firstHit = rd.setup[0]
	}
	// The probe takes the next two variants of the first base, unused by
	// the timed sequence.
	first := p.rounds[0].setup[0].inst
	used := 0
	for _, r := range p.timed() {
		if r.delta && r.inst == first {
			used++
		}
	}
	for j := used; j < used+2; j++ {
		r, err := deltaRequest(first, j)
		if err != nil {
			return nil, err
		}
		p.probe = append(p.probe, r)
	}
	return p, nil
}
