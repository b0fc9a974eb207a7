package main

import (
	"math"
	"sort"
)

// tailLadder lists the percentiles a timing's tail may be reported at,
// highest first. The reported tail is the highest one that still leaves
// at least minBeyond samples above it, so a short run never reports a
// "p99" that rests on one or two samples.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

const minBeyond = 10

// tailPercentile picks the highest ladder percentile with at least
// minBeyond of n samples strictly beyond its nearest-rank position. ok is
// false when not even the median qualifies (n < 2*minBeyond); p is then 50.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if n-nearestRank(p, n) >= minBeyond {
			return p, true
		}
	}
	return 50, false
}

// nearestRank is the 1-based rank of percentile p among n sorted samples.
func nearestRank(p float64, n int) int {
	// A tolerance keeps float rounding (99.9% of 10000 is 9990.000000000002)
	// from moving the rank up by one.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank percentile p of xs (0 when empty).
// xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[nearestRank(p, len(s))-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// timing summarises a set of durations in milliseconds the way every
// timing in the benchmark is reported: median, the tail percentile the
// sample count supports, and the count.
type timing struct {
	N      int
	P50    float64
	TailP  float64
	Tail   float64
	Beyond int
}

func summarize(ms []float64) timing {
	p, _ := tailPercentile(len(ms))
	t := timing{N: len(ms), P50: median(ms), TailP: p, Tail: percentile(ms, p)}
	if len(ms) > 0 {
		t.Beyond = len(ms) - nearestRank(p, len(ms))
	}
	return t
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
