package main

import (
	"testing"
	"time"
)

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	due := []time.Duration{0, 5 * time.Millisecond, 10 * time.Millisecond}
	res := openLoop(due, func(i int, r *serveRes) {
		if i == 0 {
			time.Sleep(30 * time.Millisecond) // a slow first request
		}
		time.Sleep(time.Millisecond)
	})
	for i, r := range res {
		if r.due != due[i] {
			t.Fatalf("request %d due %v, want %v", i, r.due, due[i])
		}
		if r.sent < r.due || r.lagMS() < 0 {
			t.Errorf("request %d sent %v before it was due %v", i, r.sent, r.due)
		}
		if r.latencyMS() < 1 || r.latencyMS() < r.lagMS() {
			t.Errorf("request %d latency %.3fms, lag %.3fms", i, r.latencyMS(), r.lagMS())
		}
	}
	// The slow request does not hold back the later ones: an open loop
	// sends on schedule.
	if res[2].sent > 25*time.Millisecond {
		t.Errorf("third request sent at %v, behind the slow first one", res[2].sent)
	}
	if res[0].latencyMS() < 31 {
		t.Errorf("slow request latency %.3fms, want >= 31ms", res[0].latencyMS())
	}
}

func TestLatencyChargesGeneratorLateness(t *testing.T) {
	r := serveRes{due: 10 * time.Millisecond, sent: 25 * time.Millisecond, done: 30 * time.Millisecond}
	if r.lagMS() != 15 || r.latencyMS() != 20 {
		t.Fatalf("lag %.1fms latency %.1fms, want 15 and 20", r.lagMS(), r.latencyMS())
	}
}

func TestBacklogAtEnd(t *testing.T) {
	ms := time.Millisecond
	res := []serveRes{
		{sent: 0, done: 5 * ms},
		{sent: 10 * ms, done: 50 * ms}, // still running when the last is sent
		{sent: 20 * ms, done: 21 * ms},
		{sent: 30 * ms, done: 40 * ms}, // the last one sent
	}
	if got := backlogAtEnd(res); got != 2 {
		t.Fatalf("backlog = %d, want 2", got)
	}
}

func TestLadderStopsAtFirstFailingRate(t *testing.T) {
	const slo, workers = 250.0, 2
	ok := func(rps float64) ladderStep { return ladderStep{rps: rps, sent: 100, tailMS: 100} }
	steps := []ladderStep{ok(35), ok(70), ok(105)}
	if got := maxRPSAtSLO(steps, slo, workers); got != 105 {
		t.Fatalf("all pass: %g, want 105", got)
	}
	for name, bad := range map[string]ladderStep{
		"tail over the limit": {rps: 105, sent: 100, tailMS: 251},
		"a 429":               {rps: 105, sent: 100, tailMS: 100, rejected: 1},
		"a failure":           {rps: 105, sent: 100, tailMS: 100, failed: 1},
		"growing backlog":     {rps: 105, sent: 100, tailMS: 100, backlog: 6},
	} {
		if got := maxRPSAtSLO([]ladderStep{ok(35), ok(70), bad, ok(140)}, slo, workers); got != 70 {
			t.Errorf("%s at 105 rps: max %g, want 70", name, got)
		}
	}
	// A backlog of up to 2 per worker, or 5% of the requests sent, is
	// the steady state of a busy server, not growth.
	if !(ladderStep{rps: 1, sent: 100, tailMS: 1, backlog: 5}).passes(slo, workers) {
		t.Error("backlog 5 of 100 sent should pass")
	}
	if got := maxRPSAtSLO([]ladderStep{{rps: 35, sent: 10, tailMS: 300}}, slo, workers); got != 0 {
		t.Errorf("lowest rate failing: %g, want 0", got)
	}
}
