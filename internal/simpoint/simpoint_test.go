package simpoint

import (
	"math"
	"testing"
)

func mkInterval(idx int, blocks map[uint64]uint64) Interval {
	var uops uint64
	for _, v := range blocks {
		uops += v
	}
	return Interval{Index: idx, Vec: blocks, Uops: uops}
}

func TestProfileSlicesIntervals(t *testing.T) {
	p := NewProfile(100)
	for i := 0; i < 250; i++ {
		p.Touch(uint64(0x1000 + (i%4)*32))
	}
	ivs := p.Intervals()
	if len(ivs) != 3 {
		t.Fatalf("got %d intervals, want 3 (100+100+50)", len(ivs))
	}
	if ivs[0].Uops != 100 || ivs[2].Uops != 50 {
		t.Errorf("interval sizes: %d, %d", ivs[0].Uops, ivs[2].Uops)
	}
	if ivs[0].Index != 0 || ivs[2].Index != 2 {
		t.Error("interval indices wrong")
	}
}

func TestDistanceProperties(t *testing.T) {
	a := mkInterval(0, map[uint64]uint64{1: 50, 2: 50})
	b := mkInterval(1, map[uint64]uint64{1: 50, 2: 50})
	c := mkInterval(2, map[uint64]uint64{3: 100})
	if d := distance(a, b); d != 0 {
		t.Errorf("identical distributions distance = %v", d)
	}
	if d := distance(a, c); math.Abs(d-2) > 1e-12 {
		t.Errorf("disjoint distributions distance = %v, want 2", d)
	}
	if distance(a, c) != distance(c, a) {
		t.Error("distance must be symmetric")
	}
}

func TestSelectFindsPhases(t *testing.T) {
	// Two clear phases: blocks {1,2} then blocks {9,10}.
	var ivs []Interval
	for i := 0; i < 6; i++ {
		ivs = append(ivs, mkInterval(i, map[uint64]uint64{1: 80, 2: 20}))
	}
	for i := 6; i < 10; i++ {
		ivs = append(ivs, mkInterval(i, map[uint64]uint64{9: 50, 10: 50}))
	}
	pts := Select(ivs, 2)
	if len(pts) != 2 {
		t.Fatalf("got %d simpoints, want 2", len(pts))
	}
	wsum := 0.0
	for _, p := range pts {
		wsum += p.Weight
	}
	if math.Abs(wsum-1) > 1e-9 {
		t.Errorf("weights sum to %v", wsum)
	}
	// The weights must reflect the 6/4 phase split.
	w := map[bool]float64{} // phase1?
	for _, p := range pts {
		w[p.Interval < 6] += p.Weight
	}
	if math.Abs(w[true]-0.6) > 1e-9 || math.Abs(w[false]-0.4) > 1e-9 {
		t.Errorf("phase weights = %v", w)
	}
}

func TestSelectDegenerateCases(t *testing.T) {
	if pts := Select(nil, 3); pts != nil {
		t.Error("no intervals should yield no simpoints")
	}
	one := []Interval{mkInterval(0, map[uint64]uint64{1: 10})}
	pts := Select(one, 5)
	if len(pts) != 1 || pts[0].Weight != 1 {
		t.Errorf("single interval: %+v", pts)
	}
	// Identical intervals collapse into one cluster.
	same := []Interval{
		mkInterval(0, map[uint64]uint64{1: 10}),
		mkInterval(1, map[uint64]uint64{1: 10}),
		mkInterval(2, map[uint64]uint64{1: 10}),
	}
	pts = Select(same, 3)
	total := 0.0
	for _, p := range pts {
		total += p.Weight
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("weights sum to %v", total)
	}
}

func TestWeightedMetric(t *testing.T) {
	pts := []SimPoint{{Interval: 0, Weight: 0.25}, {Interval: 1, Weight: 0.75}}
	v, err := WeightedMetric(pts, []float64{4, 8})
	if err != nil || v != 7 {
		t.Errorf("weighted = %v, %v", v, err)
	}
	if _, err := WeightedMetric(pts, []float64{1}); err == nil {
		t.Error("length mismatch must error")
	}
}

// orderSensitive builds a 40-block BBV whose normalized counts round
// differently depending on the order they are summed in, so a distance
// summed in map order would not repeat from call to call.
func orderSensitive(mod uint64) map[uint64]uint64 {
	vec := map[uint64]uint64{}
	for i := uint64(0); i < 40; i++ {
		vec[0x1000+i*16] = i%mod + 1
	}
	return vec
}

func TestDistanceRepeatsExactly(t *testing.T) {
	a := mkInterval(0, orderSensitive(7))
	b := mkInterval(1, orderSensitive(5))
	want := distance(a, b)
	for i := 0; i < 200; i++ {
		if got := distance(a, b); got != want {
			t.Fatalf("call %d: distance = %v, first call gave %v", i, got, want)
		}
	}
}

// TestSelectRepeatsOnTies gives intervals 1 and 2 the same BBV, so they
// are equally far from interval 0: the tie must go to the lower index on
// every call, not to whichever sum happened to round up.
func TestSelectRepeatsOnTies(t *testing.T) {
	ivs := []Interval{
		mkInterval(0, orderSensitive(7)),
		mkInterval(1, orderSensitive(5)),
		mkInterval(2, orderSensitive(5)),
	}
	for i := 0; i < 200; i++ {
		pts := Select(ivs, 2)
		if len(pts) != 2 || pts[0].Interval != 0 || pts[1].Interval != 1 {
			t.Fatalf("call %d: Select = %+v, want intervals 0 and 1", i, pts)
		}
	}
}
