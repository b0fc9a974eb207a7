// Command perfbench is the repository's performance benchmark. One
// invocation runs one workload for a fixed time, checks the program's
// outputs, and prints every metric by name and unit; the last line of
// standard output is a JSON object with the fields correct, attempted,
// failed and metrics.
//
//	bash perfbench/run.sh --workload paper|serve|footprint --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with no tracing. --trace 1
// runs an untraced pass, the same operations again with spans recorded
// around every call into the program, and a walk over each layer's
// public functions; it reports the per-layer metrics. See README.md.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// workDir holds everything a run writes (result caches, span files). It
// is relative to the repository root the benchmark runs from.
const workDir = ".bench_build"

// windowsPerPhase is how many equal windows a time-limited pass of
// short, overlapping operations is cut into.
const windowsPerPhase = 5

// setupRepeats is how many times setup runs; setup_s is their median.
const setupRepeats = 9

// workload is one input set the benchmark runs.
type workload interface {
	// setup builds the workload's inputs from the seed. It runs
	// setupRepeats times; the last result is the one measured.
	setup(seed int64) error
	// run executes operations until lim is reached and returns what they
	// did. tr is nil on untraced passes.
	run(lim limit, tr *tracer) (*phase, error)
	// check verifies the outputs of every pass, after the timed phases,
	// and returns how many operations failed with the first failure.
	check(passes []*phase) (failed int, first error)
	// layers times calls into each module's public functions and fills
	// the per-layer metrics this workload exercises.
	layers(tr *tracer, m metricSet) error
}

// limit stops a pass after a duration or after a number of operations.
type limit struct {
	d   time.Duration
	ops int
}

func (l limit) done(start time.Time, ops int) bool {
	if l.ops > 0 {
		return ops >= l.ops
	}
	return time.Since(start) >= l.d
}

// phase is one timed pass over a workload's operations.
type phase struct {
	ops    int // operations attempted
	failed int // operations that returned an error
	uops   uint64
	wall   time.Duration
	cpu    time.Duration
	heap   []heapSample // Go heap in use, sampled through the pass
	// samples are the simulated uops and latencies the pass produced,
	// stamped with when they completed; marks cut the pass into the
	// windows the end-to-end metrics are medians over.
	samples []sample
	marks   []mark
	// out holds what check compares, in operation order.
	out any
}

// sample is one completed unit of work: its simulated uops and, when
// hasLat is set, its latency in ms.
type sample struct {
	at     time.Duration // since the pass started
	uops   uint64
	lat    float64
	hasLat bool
}

// mark is a window boundary: wall time since the pass started and the
// process CPU time used by then.
type mark struct {
	at, cpu time.Duration
}

// heapSample is the heap in use, in bytes, at a point of the pass.
type heapSample struct {
	at    time.Duration
	bytes uint64
}

// window is the work completed between two marks.
type window struct {
	uops      uint64
	wall, cpu time.Duration
	lat       []float64
}

// windows cuts the samples at the marks.
func (p *phase) windows() []window {
	var out []window
	prev := mark{}
	for _, m := range p.marks {
		w := window{wall: m.at - prev.at, cpu: m.cpu - prev.cpu}
		for _, s := range p.samples {
			if s.at > prev.at && s.at <= m.at {
				w.uops += s.uops
				if s.hasLat {
					w.lat = append(w.lat, s.lat)
				}
			}
		}
		if w.wall > 0 {
			out = append(out, w)
		}
		prev = m
	}
	return out
}

type metricSet map[string]float64

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	name := flag.String("workload", "paper", "workload: paper, serve or footprint")
	seed := flag.Int64("seed", 1, "seed for the generated inputs")
	seconds := flag.Int("seconds", 30, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	if _, err := os.Stat("go.mod"); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run from the repository root")
		return 2
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	d := time.Duration(*seconds) * time.Second
	var w workload
	switch *name {
	case "paper":
		w = &paperWorkload{}
	case "serve":
		w = &serveWorkload{horizon: d}
	case "footprint":
		w = &footprintWorkload{}
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	printHost(*name, *seed)
	var out *output
	var err error
	if *trace == 0 {
		out, err = endToEnd(w, *seed, d)
	} else {
		out, err = traced(w, *name, *seed, d)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, k := range sortedKeys(out.Metrics) {
		fmt.Printf("metric %-28s %14.6g %s\n", k, out.Metrics[k].Value, out.Metrics[k].Unit)
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// timedSetup runs setup setupRepeats times and returns the median in
// seconds.
func timedSetup(w workload, seed int64) (float64, error) {
	var s []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(seed); err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		s = append(s, time.Since(t0).Seconds())
	}
	return median(s), nil
}

// endToEnd measures the end-to-end metrics: setup, one untraced timed
// phase, then the output checks.
func endToEnd(w workload, seed int64, d time.Duration) (*output, error) {
	setup, err := timedSetup(w, seed)
	if err != nil {
		return nil, err
	}
	p, err := w.run(limit{d: d}, nil)
	if err != nil {
		return nil, err
	}
	failed, first := w.check([]*phase{p})
	failed += p.failed
	if first != nil {
		fmt.Fprintln(os.Stderr, "perfbench: output check:", first)
	}
	ws := p.windows()
	var rate, cpu, p50, tail, all []float64
	for _, w := range ws {
		rate = append(rate, float64(w.uops)/w.wall.Seconds())
		cpu = append(cpu, ratio(float64(w.cpu.Nanoseconds()), float64(w.uops)))
		t := summarize(w.lat)
		p50 = append(p50, t.P50)
		tail = append(tail, t.Tail)
		all = append(all, w.lat...)
	}
	fmt.Printf("phase: %d ops, %d failed, %d uops, wall %.3fs, cpu %.3fs, %d windows\n",
		p.ops, failed, p.uops, p.wall.Seconds(), p.cpu.Seconds(), len(ws))
	for i, w := range ws {
		fmt.Printf("window %d: %.3fs, %d uops, %.4g uops/s, %.4g cpu ns/uop, latency p50 %.3fms p%g %.3fms (n=%d)\n",
			i, w.wall.Seconds(), w.uops, rate[i], cpu[i], p50[i], summarize(w.lat).TailP, tail[i], len(w.lat))
	}
	lat := summarize(all)
	fmt.Printf("latency over the pass: n=%d p50=%.3fms p%g=%.3fms (%d samples beyond)\n",
		lat.N, lat.P50, lat.TailP, lat.Tail, lat.Beyond)
	fmt.Printf("metric %-28s %14.6g %s\n", "error_rate", ratio(float64(failed), float64(p.ops)), "1")
	// Every timing is the median over the pass's windows, so one window
	// that a noisy neighbour slowed does not move the result. The heap
	// peak is the 99th percentile of the pass's heap samples: the very
	// highest depends on where the garbage collector happened to run.
	var heapMB []float64
	for _, h := range p.heap {
		heapMB = append(heapMB, float64(h.bytes)/(1<<20))
	}
	m := map[string]value{
		"sim_uops_per_s":      {median(rate), "uops/s"},
		"host_cpu_ns_per_uop": {median(cpu), "ns"},
		"latency_p50_ms":      {median(p50), "ms"},
		"latency_tail_ms":     {median(tail), "ms"},
		"setup_s":             {setup, "s"},
		"heap_peak_mb":        {percentile(heapMB, 99), "MB"},
	}
	return &output{Correct: failed == 0, Attempted: max(p.ops, 1), Failed: failed, Metrics: m}, nil
}

// traced produces the per-layer metrics: an untraced pass for a third
// of the time, the same operations again with spans, then the layer
// walk. The spans are written to workDir at exit.
func traced(w workload, name string, seed int64, d time.Duration) (*output, error) {
	if _, err := timedSetup(w, seed); err != nil {
		return nil, err
	}
	bare, err := w.run(limit{d: d / 3}, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	tr.setRun(fmt.Sprintf("%s-%d-traced", name, seed))
	withSpans, err := w.run(limit{ops: bare.ops}, tr)
	if err != nil {
		return nil, err
	}
	failed, first := w.check([]*phase{bare, withSpans})
	failed += bare.failed + withSpans.failed
	if first != nil {
		fmt.Fprintln(os.Stderr, "perfbench: output check:", first)
	}
	m := metricSet{}
	m["trace.overhead_pct"] = 100 * (ratio(withSpans.cpu.Seconds(), bare.cpu.Seconds()) - 1)
	tr.setRun(fmt.Sprintf("%s-%d-layers", name, seed))
	if err := w.layers(tr, m); err != nil {
		return nil, err
	}
	path := filepath.Join(workDir, fmt.Sprintf("perfbench-trace-%s-%d.json", name, seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	spans := tr.snapshot()
	fmt.Printf("trace: %d spans written to %s\n", len(spans), path)
	dur, self := byName(spans)
	for _, name := range sortedKeys(dur) {
		fmt.Printf("span %-28s n=%-5d median %.3fms, self median %.3fms\n",
			name, len(dur[name]), median(dur[name]), median(self[name]))
	}
	out := &output{Correct: failed == 0, Attempted: max(bare.ops+withSpans.ops, 1), Failed: failed,
		Metrics: map[string]value{}}
	for _, l := range perLayer {
		v, ok := m[l.name]
		if !ok {
			return nil, fmt.Errorf("layer metric %s not measured", l.name)
		}
		out.Metrics[l.name] = value{v, l.unit}
	}
	return out, nil
}

// meter measures one timed phase: wall clock, process CPU time, window
// marks, and the Go heap in use, sampled every heapEvery.
type meter struct {
	t0    time.Time
	cpu0  time.Duration
	mu    sync.Mutex
	marks []mark
	stop  chan struct{}
	done  chan []heapSample
}

const heapEvery = 2 * time.Millisecond

// startMeter starts measuring. With every > 0 it also marks the first
// n window boundaries, every that long; finish closes the last window.
func startMeter(every time.Duration, n int) *meter {
	runtime.GC()
	m := &meter{t0: time.Now(), cpu0: cpuTime(), stop: make(chan struct{}), done: make(chan []heapSample, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var heap []heapSample
		next := every
		t := time.NewTicker(heapEvery)
		defer t.Stop()
		for {
			metrics.Read(s)
			heap = append(heap, heapSample{time.Since(m.t0), s[0].Value.Uint64()})
			if n > 0 && time.Since(m.t0) >= next {
				m.mark()
				next += every
				n--
			}
			select {
			case <-m.stop:
				m.done <- heap
				return
			case <-t.C:
			}
		}
	}()
	return m
}

// since is the time since the meter started.
func (m *meter) since() time.Duration { return time.Since(m.t0) }

// mark records a window boundary now.
func (m *meter) mark() {
	mk := mark{at: time.Since(m.t0), cpu: cpuTime() - m.cpu0}
	m.mu.Lock()
	m.marks = append(m.marks, mk)
	m.mu.Unlock()
}

// timeWindows starts a meter that cuts a time-limited pass into n equal
// windows; a pass limited by operation count is one window.
func timeWindows(lim limit, n int) *meter {
	if lim.ops > 0 {
		return startMeter(0, 0)
	}
	return startMeter(lim.d/time.Duration(n), n-1)
}

// finish stops the meter, closes the last window and fills the phase's
// wall, cpu, heap and marks.
func (m *meter) finish(p *phase) {
	close(m.stop)
	p.heap = <-m.done
	m.mark()
	p.marks = m.marks
	last := m.marks[len(m.marks)-1]
	p.wall, p.cpu = last.at, last.cpu
	for _, s := range p.samples {
		p.uops += s.uops
	}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// printHost records what the numbers were measured on.
func printHost(name string, seed int64) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("host: workload=%s seed=%d nproc=%d gomaxprocs=%d go=%s cpu=%q commit=%s source=%s\n",
		name, seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), commit, sourceDigest())
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes the Go sources under the current directory, so a
// result names the code it measured even outside a git checkout.
func sourceDigest() string {
	h := sha256.New()
	var files []string
	filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p)
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
