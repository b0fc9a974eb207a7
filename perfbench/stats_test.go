package main

import "testing"

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		ok     bool
		beyond int
	}{
		{0, 50, false, 0},
		{19, 50, false, 9},
		{20, 50, true, 10},
		{99, 75, true, 24},
		{100, 90, true, 10},
		{199, 90, true, 19},
		{200, 95, true, 10},
		{999, 95, true, 49},
		{1000, 99, true, 10},
		{9999, 99, true, 99},
		{10000, 99.9, true, 10},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.p || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", c.n, p, ok, c.p, c.ok)
		}
		if c.n == 0 {
			continue
		}
		if got := c.n - nearestRank(p, c.n); got != c.beyond {
			t.Errorf("n=%d p%g: %d samples beyond, want %d", c.n, p, got, c.beyond)
		}
	}
}

func TestSummarizeReportsCountsAndNearestRank(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 200..1, unsorted
	}
	s := summarize(xs)
	if s.N != 200 || s.TailP != 95 || s.Tail != 190 || s.Beyond != 10 || s.P50 != 100 {
		t.Fatalf("summarize = %+v, want n=200 p95=190 beyond=10 p50=100", s)
	}
	if xs[0] != 200 {
		t.Fatal("summarize reordered its input")
	}
	if e := summarize(nil); e.N != 0 || e.P50 != 0 || e.Tail != 0 {
		t.Fatalf("summarize(nil) = %+v", e)
	}
}
