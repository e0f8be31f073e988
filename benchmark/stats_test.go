package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

func TestNearestRank(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i)
	}
	for _, c := range []struct {
		xs   []float64
		pct  int
		want float64
	}{
		{[]float64{7}, 50, 7},
		{[]float64{7}, 90, 7},
		{[]float64{2, 1}, 50, 1},
		{[]float64{2, 1}, 90, 2},
		{[]float64{3, 1, 2}, 50, 2},
		{ten, 50, 5},
		{ten, 90, 9},
		{ten, 100, 10},
		{ten, 0, 1},
		{hundred, 50, 50},
		{hundred, 90, 90},
		{hundred[:99], 90, 91}, // ⌈89.1⌉ = 90th smallest of 2..100
	} {
		if got := nearestRank(c.xs, c.pct); got != c.want {
			t.Errorf("nearestRank(n=%d, p%d) = %v, want %v", len(c.xs), c.pct, got, c.want)
		}
	}
	if ten[0] != 10 {
		t.Error("nearestRank reordered its input")
	}
}

func TestRequestsFor(t *testing.T) {
	for _, c := range []struct{ pct, beyond, want int }{
		{90, 10, 100},
		{50, 10, 20},
		{99, 10, 1000},
		{90, 1, 10},
	} {
		got := requestsFor(c.pct, c.beyond)
		if got != c.want {
			t.Errorf("requestsFor(%d, %d) = %d, want %d", c.pct, c.beyond, got, c.want)
		}
		if n := got - 1; n-rank(n, c.pct) >= c.beyond {
			t.Errorf("requestsFor(%d, %d) = %d is not the least: %d already leaves %d", c.pct, c.beyond, got, n, n-rank(n, c.pct))
		}
	}
}

func TestTally(t *testing.T) {
	good := outcome{got: []float64{1, 2.0005}, want: []float64{1, 2}, tol: 1e-3}
	exact := outcome{got: []float64{5}, want: []float64{5}}
	for _, c := range []struct {
		name     string
		outcomes []outcome
		errs     []error
		failed   int
		maxErr   float64
	}{
		{"all good", []outcome{good, exact}, []error{nil, nil}, 0, 0.0005},
		{"error counts", []outcome{good, {}}, []error{nil, errors.New("boom")}, 1, 0.0005},
		{"out of tolerance", []outcome{good, {got: []float64{1.1}, want: []float64{1}, tol: 1e-3}}, []error{nil, nil}, 1, 0.0005},
		{"inexact", []outcome{{got: []float64{4}, want: []float64{5}}}, []error{nil}, 1, 0},
		{"NaN", []outcome{{got: []float64{math.NaN()}, want: []float64{5}, tol: 1}}, []error{nil}, 1, 0},
		{"missing slot", []outcome{{got: []float64{5}, want: []float64{5, 6}}}, []error{nil}, 1, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			var tl tally
			for i, o := range c.outcomes {
				tl.add(time.Duration(i+1)*time.Millisecond, o, c.errs[i])
			}
			tl.wall = time.Second
			n := len(c.outcomes)
			if tl.failed != c.failed || len(tl.lat) != n {
				t.Errorf("failed %d of %d, want %d of %d", tl.failed, len(tl.lat), c.failed, n)
			}
			if math.Abs(tl.maxErr-c.maxErr) > 1e-12 {
				t.Errorf("maxErr %v, want %v", tl.maxErr, c.maxErr)
			}
			if tl.throughput() != float64(n) {
				t.Errorf("throughput %v, want %d/s", tl.throughput(), n)
			}
			if tl.p50() != 1 || tl.p90() != float64(n) {
				t.Errorf("p50 %v p90 %v over latencies 1..%d ms", tl.p50(), tl.p90(), n)
			}
		})
	}
}

func TestSelfNanos(t *testing.T) {
	spans := []span{
		{Name: "request", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 15, End: 25, Parent: 1},
		{Name: "a", Start: 50, End: 60, Parent: 0},
	}
	got := selfNanos(spans)
	want := map[string]int64{"request": 60, "a": 30, "b": 10}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self[%s] = %d, want %d", k, got[k], v)
		}
	}
}
