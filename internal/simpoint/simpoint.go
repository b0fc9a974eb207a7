// Package simpoint implements a SimPoint-style interval selection and
// weighting harness (§VI): an execution is divided into fixed-length
// intervals, each interval is fingerprinted by its basic-block vector, the
// intervals are clustered (k-medoids on Manhattan distance, as in the
// SimPoint methodology), and a representative interval plus weight is
// produced per cluster. Whole-program metrics are then estimated as the
// weight-sum of per-representative measurements.
package simpoint

import (
	"fmt"
	"sort"
)

// BBV is a basic-block vector: execution counts per basic-block id within
// one interval.
type BBV map[uint64]uint64

// Interval is one profiled execution interval.
type Interval struct {
	Index int
	Vec   BBV
	Uops  uint64
}

// SimPoint is one chosen representative interval with its weight.
type SimPoint struct {
	Interval int     // interval index
	Weight   float64 // fraction of intervals its cluster covers
}

// Profile collects interval fingerprints during a profiling run.
type Profile struct {
	intervalUops uint64
	cur          Interval
	intervals    []Interval
}

// NewProfile creates a profiler with the given interval length in uops
// (the paper uses 100M-instruction intervals; scaled-down runs use less).
func NewProfile(intervalUops uint64) *Profile {
	return &Profile{intervalUops: intervalUops, cur: Interval{Vec: BBV{}}}
}

// Touch records one executed uop attributed to the basic block starting at
// blockPC.
func (p *Profile) Touch(blockPC uint64) {
	p.cur.Vec[blockPC]++
	p.cur.Uops++
	if p.cur.Uops >= p.intervalUops {
		p.flush()
	}
}

func (p *Profile) flush() {
	if p.cur.Uops == 0 {
		return
	}
	p.cur.Index = len(p.intervals)
	p.intervals = append(p.intervals, p.cur)
	p.cur = Interval{Vec: BBV{}}
}

// Intervals finalizes and returns all profiled intervals.
func (p *Profile) Intervals() []Interval {
	p.flush()
	return p.intervals
}

// distance is the L1 (Manhattan) distance between normalized BBVs. Terms
// are summed in ascending block-PC order: float addition is not
// associative, so summing in map order would let near-tied intervals pick
// different representatives from one call to the next.
func distance(a, b Interval) float64 {
	an, bn := float64(a.Uops), float64(b.Uops)
	if an == 0 || bn == 0 {
		return 1
	}
	pcs := make([]uint64, 0, len(a.Vec)+len(b.Vec))
	for k := range a.Vec {
		pcs = append(pcs, k)
	}
	for k := range b.Vec {
		if _, ok := a.Vec[k]; !ok {
			pcs = append(pcs, k)
		}
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	d := 0.0
	for _, k := range pcs {
		d += abs(float64(a.Vec[k])/an - float64(b.Vec[k])/bn)
	}
	return d
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Select clusters the intervals into at most k groups (greedy k-medoids:
// farthest-point seeding followed by assignment) and returns one SimPoint
// per non-empty cluster, weights summing to 1.
func Select(intervals []Interval, k int) []SimPoint {
	n := len(intervals)
	if n == 0 {
		return nil
	}
	if k > n {
		k = n
	}
	// Farthest-point seeding, deterministic from interval 0.
	medoids := []int{0}
	for len(medoids) < k {
		best, bestD := -1, -1.0
		for i := 0; i < n; i++ {
			dMin := 1e18
			for _, m := range medoids {
				if d := distance(intervals[i], intervals[m]); d < dMin {
					dMin = d
				}
			}
			if dMin > bestD {
				bestD = dMin
				best = i
			}
		}
		if best < 0 || bestD == 0 {
			break
		}
		medoids = append(medoids, best)
	}
	// Assignment.
	counts := make([]int, len(medoids))
	for i := 0; i < n; i++ {
		bi, bd := 0, 1e18
		for mi, m := range medoids {
			if d := distance(intervals[i], intervals[m]); d < bd {
				bd = d
				bi = mi
			}
		}
		counts[bi]++
	}
	var out []SimPoint
	for mi, m := range medoids {
		if counts[mi] == 0 {
			continue
		}
		out = append(out, SimPoint{
			Interval: intervals[m].Index,
			Weight:   float64(counts[mi]) / float64(n),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Interval < out[j].Interval })
	return out
}

// WeightedMetric combines per-simpoint measurements into a whole-program
// estimate. metric[i] corresponds to points[i].
func WeightedMetric(points []SimPoint, metric []float64) (float64, error) {
	if len(points) != len(metric) {
		return 0, fmt.Errorf("simpoint: %d points but %d metrics", len(points), len(metric))
	}
	s := 0.0
	for i, p := range points {
		s += p.Weight * metric[i]
	}
	return s, nil
}
