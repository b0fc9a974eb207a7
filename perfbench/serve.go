package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"time"

	"sccsim/internal/harness"
	"sccsim/internal/pipeline"
	"sccsim/internal/scc"
	"sccsim/internal/serve"
	"sccsim/internal/workloads"
)

// The serve workload is an open loop: requests are due on a fixed
// schedule at serveRefRPS, each sent on its own goroutine when due,
// straight into the server's http.Handler (no sockets), and timed from
// when it was due to when its manifest came back.
const (
	// serveRefRPS keeps each worker busy about a tenth of the time on a
	// quiet host. With as many workers as CPUs, a reply that becomes
	// runnable while both workers simulate waits for the Go scheduler to
	// preempt one (up to 10 ms). Nearer half busy, those waits and the
	// queueing grew faster than the host slowed down, so latency swung
	// two to three times as far as the host's speed did.
	serveRefRPS = 25.0
	// serveWindows is how many windows a serve pass is cut into: fewer
	// than the default, so each window holds enough requests (about 250)
	// for its p95 to fall well inside the mcf jobs that form the tail.
	serveWindows = 3
	// serveRepeats of every serveBlock requests repeat an earlier job
	// and mostly hit the result cache at admission; the rest are new
	// jobs that simulate and write back. The share is kept low so the
	// median latency falls in the middle of the jobs that simulate: a
	// cache hit answers in about a millisecond, but one that arrives
	// while both workers simulate waits for the Go scheduler to preempt
	// one (up to 10 ms), so a median among the hits swings with how busy
	// the host is.
	serveBlock   = 5
	serveRepeats = 1
	// New jobs draw distinct budgets from serveBudgets values spaced
	// serveBudgetStep apart from serveBudgetLo (16k to 24k uops): enough
	// distinct jobs for a long run, all close to 20k.
	serveBudgetLo   = 16_000
	serveBudgetStep = 16
	serveBudgets    = 512
	// serveSLOms is the latency limit the rate ladder holds the tail to.
	serveSLOms = 250.0
	// serveStep is how long each ladder rate is offered.
	serveStep = 3 * time.Second
)

// serveLadder is the fixed set of rates, as multiples of serveRefRPS,
// that max_rps_at_slo is chosen from.
var serveLadder = []float64{0.5, 1, 2, 4, 6, 8, 10, 12}

var servePresets = []string{"baseline", "scc"}

// serveKey is one distinct job: a kernel, a preset and a budget.
type serveKey struct {
	kernel, preset int
	budget         uint64
}

type serveReq struct {
	due  time.Duration
	key  int // index into serveWorkload.keys
	body []byte
}

type serveWorkload struct {
	horizon time.Duration
	kernels []workloads.Workload
	keys    []serveKey
	sched   []serveReq
	// traced holds the traced pass's server-side figures for layers.
	traced *serveTrace
	seed   int64
}

// serveSchedule lays out the requests due before horizon at rps. They
// are evenly spaced with a seeded jitter of up to half a gap, and come in
// blocks of serveBlock: in each block serveRepeats requests, at seeded
// positions, repeat an earlier job (early jobs are the popular ones),
// and the rest are new jobs. New jobs deal the kernel × preset pairs
// from a shuffled deck, each with a budget not used before. So every
// stretch of the run offers the same load and mix, and the seed changes
// which jobs, not how many or how heavy. It returns the requests and
// the distinct jobs they name.
func serveSchedule(rng *rand.Rand, rps float64, horizon time.Duration, nKernels int) ([]serveReq, []serveKey) {
	gap := time.Duration(float64(time.Second) / rps)
	var out []serveReq
	var keys []serveKey
	used := map[serveKey]bool{}
	var deck, block []int
	for i := 0; ; i++ {
		t := time.Duration(i)*gap + time.Duration((rng.Float64()-0.5)*float64(gap))
		if i == 0 {
			t = 0
		}
		if t >= horizon {
			return out, keys
		}
		if len(block) == 0 {
			block = rng.Perm(serveBlock)
		}
		repeat := block[0] < serveRepeats
		block = block[1:]
		var k int
		if repeat && len(keys) > 0 {
			k = int(float64(len(keys)) * math.Pow(rng.Float64(), 3))
		} else {
			if len(deck) == 0 {
				deck = rng.Perm(nKernels * len(servePresets))
			}
			pair := deck[0]
			deck = deck[1:]
			for {
				key := serveKey{kernel: pair / len(servePresets), preset: pair % len(servePresets),
					budget: serveBudgetLo + serveBudgetStep*uint64(rng.Intn(serveBudgets))}
				if !used[key] {
					used[key] = true
					keys = append(keys, key)
					k = len(keys) - 1
					break
				}
			}
		}
		out = append(out, serveReq{due: t, key: k})
	}
}

func jobBody(kernel string, key serveKey) []byte {
	return []byte(fmt.Sprintf(`{"workload":%q,"preset":%q,"max_uops":%d,"wait":true}`,
		kernel, servePresets[key.preset], key.budget))
}

func (w *serveWorkload) setup(seed int64) error {
	w.seed = seed
	w.kernels = w.kernels[:0]
	for _, name := range paperKernels {
		k, ok := workloads.ByName(name)
		if !ok {
			return fmt.Errorf("unknown kernel %s", name)
		}
		w.kernels = append(w.kernels, k)
	}
	rng := rand.New(rand.NewSource(seed))
	w.sched, w.keys = serveSchedule(rng, serveRefRPS, w.horizon, len(w.kernels))
	for i := range w.sched {
		key := w.keys[w.sched[i].key]
		w.sched[i].body = jobBody(w.kernels[key.kernel].Name, key)
	}
	// Server start is part of setup: make one and shut it down.
	_, stop, err := newServer()
	if err != nil {
		return err
	}
	stop()
	return nil
}

// serveRes is one request's outcome.
type serveRes struct {
	key       int
	code      int
	id        string
	fromCache bool
	manifest  [32]byte // sha256 of the compacted manifest
	uops      uint64
	sent      time.Duration // since the pass started
	due       time.Duration
	done      time.Duration
	admitMS   float64 // ServeHTTP call time
	err       error
}

// openLoop sends each request when due and waits for all of them.
// send performs one request and fills its result.
func openLoop(due []time.Duration, send func(i int, r *serveRes)) []serveRes {
	res := make([]serveRes, len(due))
	start := time.Now()
	var wg sync.WaitGroup
	for i := range due {
		if d := time.Until(start.Add(due[i])); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := &res[i]
			r.due = due[i]
			r.sent = time.Since(start)
			send(i, r)
			r.done = time.Since(start)
		}(i)
	}
	wg.Wait()
	return res
}

// latencyMS is a request's latency measured from when it was due, so a
// generator or server stall is charged to every request it delayed.
func (r serveRes) latencyMS() float64 { return float64(r.done-r.due) / 1e6 }

// lagMS is how late the generator sent the request.
func (r serveRes) lagMS() float64 { return float64(r.sent-r.due) / 1e6 }

// post submits one job to the handler and decodes the synchronous reply.
func post(srv http.Handler, body []byte, tr *tracer, r *serveRes) {
	req, err := http.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
	if err != nil {
		r.err = err
		return
	}
	rec := httptest.NewRecorder()
	id := tr.start("serve.ServeHTTP", 0)
	t0 := time.Now()
	srv.ServeHTTP(rec, req)
	r.admitMS = time.Since(t0).Seconds() * 1e3
	tr.end(id)
	r.code = rec.Code
	if rec.Code != http.StatusOK {
		r.err = fmt.Errorf("POST /v1/jobs = %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		return
	}
	var st serve.JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		r.err = err
		return
	}
	if st.State != string(serve.StateDone) {
		r.err = fmt.Errorf("job %s finished %s: %s", st.ID, st.State, st.Error)
		return
	}
	r.id, r.fromCache = st.ID, st.FromCache
	var man struct {
		Stats struct{ CommittedUops uint64 }
	}
	if err := json.Unmarshal(st.Manifest, &man); err != nil {
		r.err = err
		return
	}
	r.uops = man.Stats.CommittedUops
	r.manifest = compactDigest(st.Manifest)
}

func compactDigest(raw []byte) [32]byte {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return [32]byte{}
	}
	return sha256.Sum256(buf.Bytes())
}

// newServer starts a server with a fresh, empty result cache.
func newServer() (*serve.Server, func(), error) {
	dir, err := os.MkdirTemp(workDir, "serve-cache-")
	if err != nil {
		return nil, nil, err
	}
	srv := serve.New(serve.Config{Workers: workers(), CacheDir: dir})
	return srv, func() { srv.Close(); os.RemoveAll(dir) }, nil
}

func (w *serveWorkload) run(lim limit, tr *tracer) (*phase, error) {
	reqs := w.sched
	if lim.ops > 0 && lim.ops < len(reqs) {
		reqs = reqs[:lim.ops]
	} else if lim.ops == 0 {
		n := 0
		for n < len(reqs) && reqs[n].due < lim.d {
			n++
		}
		reqs = reqs[:n]
	}
	srv, stop, err := newServer()
	if err != nil {
		return nil, err
	}
	defer stop()
	due := make([]time.Duration, len(reqs))
	for i, r := range reqs {
		due[i] = r.due
	}
	p := &phase{}
	m := timeWindows(lim, serveWindows)
	res := openLoop(due, func(i int, r *serveRes) {
		r.key = reqs[i].key
		post(srv, reqs[i].body, tr, r)
	})
	p.ops = len(res)
	for _, r := range res {
		if r.err != nil {
			p.failed++
			continue
		}
		smp := sample{at: r.done, lat: r.latencyMS(), hasLat: true}
		if !r.fromCache {
			smp.uops = r.uops
		}
		p.samples = append(p.samples, smp)
	}
	m.finish(p)
	if tr != nil {
		st, err := readServerTraces(srv, res, p.wall)
		if err != nil {
			return nil, err
		}
		w.traced = st
	}
	p.out = res
	return p, nil
}

// check computes the oracle after the timed phase: every distinct job
// run locally through harness.RunOne, its normalized manifest compared
// byte for byte (after JSON compaction) with each reply for that job.
func (w *serveWorkload) check(passes []*phase) (int, error) {
	need := map[int]bool{}
	for _, p := range passes {
		for _, r := range p.out.([]serveRes) {
			if r.err == nil {
				need[r.key] = true
			}
		}
	}
	keys := make([]int, 0, len(need))
	for k := range need {
		keys = append(keys, k)
	}
	want, err := parallelMap(keys, func(k int) ([32]byte, error) {
		key := w.keys[k]
		return oracleDigest(w.kernels[key.kernel], key)
	})
	if err != nil {
		return len(keys), err
	}
	oracle := map[int][32]byte{}
	for i, k := range keys {
		oracle[k] = want[i]
	}
	failed := 0
	var first error
	for _, p := range passes {
		for i, r := range p.out.([]serveRes) {
			if r.err != nil {
				if first == nil {
					first = fmt.Errorf("request %d: %w", i, r.err)
				}
				continue // counted by run
			}
			if r.manifest != oracle[r.key] {
				failed++
				if first == nil {
					first = fmt.Errorf("request %d (%s): manifest differs from the local oracle", i, w.kernels[w.keys[r.key].kernel].Name)
				}
			}
		}
	}
	return failed, first
}

func serveConfig(key serveKey) pipeline.Config {
	cfg := pipeline.Icelake()
	if servePresets[key.preset] == "scc" {
		cfg = pipeline.IcelakeSCC(scc.LevelFull)
	}
	return cfg
}

// oracleDigest is what a correct reply for key hashes to: the local
// run's normalized manifest as the server embeds it, compacted.
func oracleDigest(wl workloads.Workload, key serveKey) ([32]byte, error) {
	res, err := harness.RunOne(serveConfig(key), wl, harness.Options{MaxUops: key.budget, Parallel: 1})
	if err != nil {
		return [32]byte{}, err
	}
	var buf bytes.Buffer
	man := res.Manifest()
	man.Normalize()
	if err := man.Encode(&buf); err != nil {
		return [32]byte{}, err
	}
	// The reply embeds the manifest through encoding/json, which escapes
	// HTML characters; marshal it the same way before compacting.
	emb, err := json.Marshal(json.RawMessage(buf.Bytes()))
	if err != nil {
		return [32]byte{}, err
	}
	return compactDigest(emb), nil
}

// parallelMap applies f to every item on GOMAXPROCS goroutines and
// returns the results in order, or the first error.
func parallelMap[T, R any](items []T, f func(T) (R, error)) ([]R, error) {
	out := make([]R, len(items))
	errs := make([]error, len(items))
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < workers(); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(items) {
					return
				}
				out[i], errs[i] = f(items[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// serveTrace is the traced pass's server-side view, read back through
// the server's own read-only endpoints after the pass.
type serveTrace struct {
	res        []serveRes
	queueWait  []float64 // ms, per simulated job
	run        []float64 // ms, worker.run per simulated job
	rejected   int64
	hits, done int64
	wall       time.Duration
}

// readServerTraces fetches GET /v1/jobs/{id}/trace for every job that
// simulated, and GET /metrics.
func readServerTraces(srv http.Handler, res []serveRes, wall time.Duration) (*serveTrace, error) {
	st := &serveTrace{res: res, wall: wall}
	for _, r := range res {
		if r.err != nil || r.fromCache {
			continue
		}
		spans, err := jobSpans(srv, r.id)
		if err != nil {
			return nil, err
		}
		for name, ms := range spans {
			switch name {
			case "queue.wait":
				st.queueWait = append(st.queueWait, ms)
			case "worker.run":
				st.run = append(st.run, ms)
			}
		}
	}
	rec := httptest.NewRecorder()
	req, _ := http.NewRequest(http.MethodGet, "/metrics", nil)
	srv.ServeHTTP(rec, req)
	var met serve.Metrics
	if err := json.Unmarshal(rec.Body.Bytes(), &met); err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	st.rejected, st.hits, st.done = met.Rejected429, met.CacheHits, met.Completed
	return st, nil
}

// jobSpans reads one job's OTLP trace and returns span durations by name.
func jobSpans(srv http.Handler, id string) (map[string]float64, error) {
	rec := httptest.NewRecorder()
	req, _ := http.NewRequest(http.MethodGet, "/v1/jobs/"+id+"/trace", nil)
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("GET trace of %s = %d", id, rec.Code)
	}
	var doc struct {
		ResourceSpans []struct {
			ScopeSpans []struct {
				Spans []struct {
					Name  string `json:"name"`
					Start string `json:"startTimeUnixNano"`
					End   string `json:"endTimeUnixNano"`
				} `json:"spans"`
			} `json:"scopeSpans"`
		} `json:"resourceSpans"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		return nil, fmt.Errorf("trace of %s: %w", id, err)
	}
	out := map[string]float64{}
	for _, rs := range doc.ResourceSpans {
		for _, ss := range rs.ScopeSpans {
			for _, s := range ss.Spans {
				a, err1 := strconv.ParseInt(s.Start, 10, 64)
				b, err2 := strconv.ParseInt(s.End, 10, 64)
				if err1 == nil && err2 == nil {
					out[s.Name] += float64(b-a) / 1e6
				}
			}
		}
	}
	return out, nil
}

// ladderStep is one offered rate of the ladder and what it achieved.
type ladderStep struct {
	rps      float64
	sent     int
	backlog  int // requests still outstanding when the last one was sent
	rejected int // 429 replies
	failed   int // other failures
	tailMS   float64
}

// passes reports whether the step held the latency limit with no 429s,
// no failures and no growing backlog: at most a couple of requests per
// worker, or 5% of those sent, still outstanding at the end of sending.
func (s ladderStep) passes(sloMS float64, workers int) bool {
	limit := max(2*workers, s.sent/20)
	return s.rejected == 0 && s.failed == 0 && s.tailMS <= sloMS && s.backlog <= limit
}

// maxRPSAtSLO is the highest ladder rate that passes with every lower
// rate passing too; 0 when the lowest already fails.
func maxRPSAtSLO(steps []ladderStep, sloMS float64, workers int) float64 {
	best := 0.0
	for _, s := range steps {
		if !s.passes(sloMS, workers) {
			break
		}
		best = s.rps
	}
	return best
}

// backlogAtEnd counts requests still outstanding when the last one was
// sent.
func backlogAtEnd(res []serveRes) int {
	var last time.Duration
	for _, r := range res {
		last = max(last, r.sent)
	}
	n := 0
	for _, r := range res {
		if r.sent <= last && r.done > last {
			n++
		}
	}
	return n
}

// runLadder offers each ladder rate for serveStep to a fresh server,
// stopping after the first rate that fails.
func (w *serveWorkload) runLadder() ([]ladderStep, error) {
	var steps []ladderStep
	for si, mult := range serveLadder {
		rps := serveRefRPS * mult
		rng := rand.New(rand.NewSource(w.seed*31 + int64(si)))
		sched, keys := serveSchedule(rng, rps, serveStep, len(w.kernels))
		srv, stop, err := newServer()
		if err != nil {
			return nil, err
		}
		due := make([]time.Duration, len(sched))
		for i, r := range sched {
			due[i] = r.due
		}
		res := openLoop(due, func(i int, r *serveRes) {
			key := keys[sched[i].key]
			post(srv, jobBody(w.kernels[key.kernel].Name, key), nil, r)
		})
		stop()
		st := ladderStep{rps: rps, sent: len(res), backlog: backlogAtEnd(res)}
		var lat []float64
		for _, r := range res {
			switch {
			case r.code == http.StatusTooManyRequests:
				st.rejected++
			case r.err != nil:
				st.failed++
			default:
				lat = append(lat, r.latencyMS())
			}
		}
		st.tailMS = summarize(lat).Tail
		steps = append(steps, st)
		fmt.Printf("ladder: %.0f rps: %d sent, backlog %d, %d rejected, %d failed, tail %.1fms\n",
			rps, st.sent, st.backlog, st.rejected, st.failed, st.tailMS)
		if !st.passes(serveSLOms, workers()) {
			break
		}
	}
	return steps, nil
}
