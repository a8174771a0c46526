package obsv

import (
	"sync/atomic"
	"time"
)

// DefaultBuckets are the fixed log-spaced latency bucket bounds, in
// seconds: a 1–2.5–5 progression per decade from 100µs to 100s. Fixed
// bounds (rather than adaptive ones) keep scrape output byte-comparable
// across nodes and runs, and the log spacing holds relative error roughly
// constant from cache-hit to worst-case solve latencies.
func DefaultBuckets() []float64 {
	return []float64{
		0.0001, 0.00025, 0.0005,
		0.001, 0.0025, 0.005,
		0.01, 0.025, 0.05,
		0.1, 0.25, 0.5,
		1, 2.5, 5,
		10, 25, 50, 100,
	}
}

// Histogram is a fixed-bucket latency histogram safe for concurrent
// observation: one atomic counter per bucket, a count, and a nanosecond
// sum. Rendering is cumulative (Prometheus `le` semantics).
type Histogram struct {
	name    string // full metric family name, e.g. linksynthd_solve_duration_seconds
	help    string
	bounds  []float64 // upper bounds in seconds, ascending; +Inf implicit
	counts  []atomic.Uint64
	count   atomic.Uint64
	sumNano atomic.Int64
}

// NewHistogram builds a histogram over DefaultBuckets.
func NewHistogram(name, help string) *Histogram {
	bounds := DefaultBuckets()
	return &Histogram{name: name, help: help, bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one duration. Nil-safe so call sites need no guards.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	secs := d.Seconds()
	// Linear scan: 20 comparisons against contiguous memory is cheaper
	// than a branchy binary search at this size, and observation is off
	// the byte-serving fast path anyway.
	i := len(h.bounds)
	for b, ub := range h.bounds {
		if secs <= ub {
			i = b
			break
		}
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumNano.Add(int64(d))
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Quantile estimates the q-quantile (0 <= q <= 1) of the observed
// distribution in seconds, interpolating linearly inside the bucket the
// quantile lands in. Observations beyond the last finite bound clamp to
// that bound — good enough for SLO gating, where anything past 100s has
// already burned the objective. Returns 0 with no observations.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum uint64
	for i, ub := range h.bounds {
		c := h.counts[i].Load()
		if c == 0 {
			cum += c
			continue
		}
		if float64(cum+c) >= rank {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lo + (ub-lo)*frac
		}
		cum += c
	}
	return h.bounds[len(h.bounds)-1]
}

// family snapshots the histogram. A concurrent Observe may land between
// bucket reads; the cumulative counts are made monotone by construction
// (running sum), and the count is taken as the cumulative total of the
// buckets so `le="+Inf"` always equals `_count`.
func (h *Histogram) family() Family {
	f := Family{Name: h.name, Help: h.help, Type: "histogram", Bounds: h.bounds, Buckets: make([]int64, len(h.bounds))}
	var cum uint64
	for i := range h.bounds {
		cum += h.counts[i].Load()
		f.Buckets[i] = int64(cum)
	}
	f.Count = int64(cum + h.counts[len(h.bounds)].Load())
	f.Sum = float64(h.sumNano.Load()) / 1e9
	return f
}
