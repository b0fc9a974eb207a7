package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into the program: its name,
// start and end (nanoseconds since the tracer was created), the span
// that caused it (0 for a root) and the pass it belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out once, at exit. A
// nil *tracer records nothing, so the untraced pass runs the same code.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	run    string
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// setRun names the pass that later spans belong to.
func (t *tracer) setRun(run string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.run = run
	t.mu.Unlock()
}

// start opens a span and returns its id (0 on a nil tracer).
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: t.run, Name: name, Start: now})
	return len(t.spans)
}

// end closes the span start returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records an already-finished span, for intervals the program
// reports itself (a sweep's per-job start and wall time).
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: t.run, Name: name,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds()})
	return len(t.spans)
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores every span as JSON at path, each with its self time.
func (t *tracer) write(path string) error {
	type selfSpan struct {
		span
		Self int64 `json:"self_ns"`
	}
	spans := t.snapshot()
	self := selfTimes(spans)
	out := make([]selfSpan, len(spans))
	for i, s := range spans {
		out[i] = selfSpan{s, self[s.ID]}
	}
	b, err := json.Marshal(struct {
		Spans []selfSpan `json:"spans"`
	}{out})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that the union of its children covers. Children may
// overlap each other (concurrent calls) or stick out of the parent; only
// the covered part inside the parent is subtracted, once.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered is the length of [lo, hi) covered by the union of the spans.
func covered(lo, hi int64, spans []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// byName groups span durations and self times, in milliseconds, by name.
func byName(spans []span) (dur, self map[string][]float64) {
	st := selfTimes(spans)
	dur, self = map[string][]float64{}, map[string][]float64{}
	for _, s := range spans {
		dur[s.Name] = append(dur[s.Name], float64(s.dur())/1e6)
		self[s.Name] = append(self[s.Name], float64(st[s.ID])/1e6)
	}
	return dur, self
}
