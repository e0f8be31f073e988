package main

import (
	"math"
	"slices"
	"time"
)

// rank is the 1-based nearest-rank position of the pct-th percentile among
// n samples: ⌈pct·n/100⌉, at least 1.
func rank(n, pct int) int {
	return max((pct*n+99)/100, 1)
}

// nearestRank returns the pct-th percentile of xs by the nearest-rank rule.
// xs must be non-empty; it is not modified.
func nearestRank(xs []float64, pct int) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank(len(s), pct)-1]
}

// requestsFor returns the fewest samples that leave at least beyond samples
// above the pct-th percentile, so that percentile is not set by a handful of
// outliers.
func requestsFor(pct, beyond int) int {
	n := 1
	for n-rank(n, pct) < beyond {
		n++
	}
	return n
}

// outcome is one request's result beside the plaintext truth it must match.
type outcome struct {
	got, want []float64
	tol       float64 // largest accepted |got-want|; 0 demands equality
}

// check returns the largest slot error and whether every slot is within tol.
// A missing slot or a NaN fails.
func (o outcome) check() (maxErr float64, ok bool) {
	if len(o.got) != len(o.want) || len(o.want) == 0 {
		return math.Inf(1), false
	}
	ok = true
	for i, w := range o.want {
		d := math.Abs(o.got[i] - w)
		if !(d <= o.tol) {
			ok = false
		}
		maxErr = max(maxErr, d)
	}
	return maxErr, ok
}

// tally accumulates one measured phase of a closed loop.
type tally struct {
	lat    []float64 // per-request latency in ms, failures included
	failed int       // requests that returned an error or a wrong result
	maxErr float64   // largest output error among checked requests
	rss    []float64 // resident set size in MiB after each request
	wall   time.Duration
}

// add records one request: its latency and its outcome. A failed request is
// counted and the loop goes on.
func (t *tally) add(d time.Duration, o outcome, err error) {
	t.lat = append(t.lat, float64(d.Nanoseconds())/1e6)
	if err != nil {
		t.failed++
		return
	}
	e, ok := o.check()
	if !ok {
		t.failed++
		return
	}
	t.maxErr = max(t.maxErr, e)
}

func (t *tally) p50() float64 { return nearestRank(t.lat, 50) }
func (t *tally) p90() float64 { return nearestRank(t.lat, 90) }

// throughput is completed requests per second of the phase's wall time.
func (t *tally) throughput() float64 { return float64(len(t.lat)) / t.wall.Seconds() }
