package main

import "testing"

func TestSelfTimeSubtractsNestedChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 50, End: 60},
		{ID: 4, Parent: 2, Name: "a.inner", Start: 12, End: 20},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 70, 2: 12, 3: 10, 4: 8} {
		if self[id] != want {
			t.Errorf("self[%d] = %d, want %d", id, self[id], want)
		}
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Two concurrent children overlapping on [20, 40), a third
		// sticking out past the parent's end.
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 20, End: 50},
		{ID: 4, Parent: 1, Start: 90, End: 130},
		// A child inside another child's interval.
		{ID: 5, Parent: 1, Start: 25, End: 30},
	}
	if got := selfTimes(spans)[1]; got != 100-40-10 {
		t.Fatalf("self time = %d, want 50", got)
	}
}

func TestTracerRecordsParentsAndRun(t *testing.T) {
	tr := newTracer()
	tr.setRun("r1")
	root := tr.start("root", 0)
	child := tr.start("child", root)
	tr.end(child)
	tr.end(root)
	sp := tr.snapshot()
	if len(sp) != 2 || sp[1].Parent != root || sp[0].Run != "r1" || sp[1].End < sp[1].Start || sp[0].End < sp[1].End {
		t.Fatalf("spans = %+v", sp)
	}
	var nilTracer *tracer
	if id := nilTracer.start("x", 0); id != 0 {
		t.Fatalf("nil tracer returned span %d", id)
	}
	nilTracer.end(0)
}
