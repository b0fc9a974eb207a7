// Command sccbench regenerates the paper's tables and figures.
//
//	sccbench -experiment all
//	sccbench -experiment fig6
//	sccbench -experiment fig9 -max-uops 60000
//	sccbench -experiment fig6 -workloads xalancbmk,mcf,lbm
//	sccbench -experiment all -parallel 8 -progress
//	sccbench -experiment fig6 -json manifests/ -trace sweep.trace
//
// Sweeps fan out across -parallel workers (default GOMAXPROCS); the
// rendered tables are byte-identical to a serial run regardless of the
// setting, and each experiment reports its sweep telemetry (wall clock,
// simulated uops/sec) after the tables.
//
// Observability: -json <dir> writes one JSON manifest per (workload,
// configuration) run — content-addressed by config hash, so re-runs
// overwrite idempotently — plus an index.json aggregate. -trace <path>
// writes a Chrome trace-event file (one process per experiment sweep,
// one thread per scheduler worker) viewable in Perfetto. -progress
// renders a live n/total + ETA line on stderr. -cpuprofile/-memprofile
// profile the simulator itself.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"sccsim"
	"sccsim/internal/harness"
	"sccsim/internal/obs"
	"sccsim/internal/telemetry"
	"sccsim/internal/tracing"
	"sccsim/internal/workloads"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		experiment = flag.String("experiment", "all",
			"table1 | fig6 | fig7 | fig8 | fig9 | fig10 | fig11 | overhead | ext | simpoint | loadgen | all, or a comma-separated list (all excludes simpoint and loadgen)")
		maxUops  = flag.Uint64("max-uops", 0, "interval length override in micro-ops (0 = workload defaults)")
		subset   = flag.String("workloads", "", "comma-separated workload subset (default: all 19)")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0),
			"simulation runs in flight at once (1 = serial)")

		serveURL = flag.String("serve-url", "",
			"loadgen target sccserve base URL (default: spawn an in-process server)")
		lgRequests = flag.Int("loadgen-requests", 200,
			"total requests the loadgen experiment issues (repeats included)")
		lgConcurrency = flag.Int("loadgen-concurrency", 16,
			"concurrent in-flight loadgen requests")

		jsonDir    = flag.String("json", "", "write one JSON manifest per run (plus index.json) into this directory")
		traceOut   = flag.String("trace-out", "", "write the sweeps' span trees as OTLP-compatible JSON to this path (one root span per sweep, one child per scheduled run)")
		cacheDir   = flag.String("cache", "", "result-cache directory: reuse matching manifests instead of re-simulating, write back misses (any -json output directory works)")
		tracePath  = flag.String("trace", "", "write a Chrome trace-event (Perfetto) file of the sweeps to this path")
		sampleIv   = flag.Uint64("sample-interval", 10_000, "telemetry sampling interval in committed uops (with -json/-trace)")
		progress   = flag.Bool("progress", false, "live sweep progress line (n/total, ETA) on stderr")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the harness to this path")
		memProfile = flag.String("memprofile", "", "write a heap profile of the harness to this path")
		version    = flag.Bool("version", false, "print the simulator version and exit")

		logLevel    = flag.String("log-level", "warn", "structured log threshold on stderr: "+telemetry.LogLevels)
		logFormat   = flag.String("log-format", "text", "structured log encoding: "+telemetry.LogFormats)
		metricsDump = flag.String("metrics-dump", "", "write the Prometheus metrics exposition to this path at exit (\"-\" = stdout)")
	)
	flag.Parse()

	if *version {
		fmt.Println(obs.VersionString("sccbench"))
		return 0
	}
	if *parallel < 0 {
		fmt.Fprintf(os.Stderr, "sccbench: -parallel must be >= 0 (0 = GOMAXPROCS), got %d\n", *parallel)
		return 2
	}
	logger, err := telemetry.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sccbench: %v\n", err)
		return 2
	}
	defer func() {
		if *metricsDump != "" {
			if err := telemetry.DumpMetrics(*metricsDump, telemetry.Default()); err != nil {
				fmt.Fprintf(os.Stderr, "sccbench: %v\n", err)
			}
		}
	}()

	stopProfiles, err := obs.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sccbench: %v\n", err)
		return 1
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(os.Stderr, "sccbench: %v\n", err)
		}
	}()

	opts := sccsim.Options{MaxUops: *maxUops, Parallel: *parallel, Logger: logger}
	if *subset != "" {
		for _, name := range strings.Split(*subset, ",") {
			w, ok := workloads.ByName(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(os.Stderr, "sccbench: unknown workload %q\n", name)
				return 2
			}
			opts.Workloads = append(opts.Workloads, w)
		}
	}
	if *jsonDir != "" || *tracePath != "" {
		opts.SampleEvery = *sampleIv
	}
	if *progress {
		opts.Progress = obs.ProgressPrinter(os.Stderr)
	}
	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "sccbench: %v\n", err)
			return 1
		}
	}

	// art collects each sweep's results (via Options.OnResult, keyed by
	// submission index) and turns them into per-run manifests and trace
	// processes after the sweep's summary is known.
	art := &artifacts{jsonDir: *jsonDir, trace: obs.NewTrace(), index: obs.NewIndex()}
	if *jsonDir != "" || *tracePath != "" {
		opts.OnResult = art.collect
	}
	var cacheHits, cacheRuns int
	if *cacheDir != "" {
		opts.CacheDir = *cacheDir
		inner := opts.OnResult
		opts.OnResult = func(i int, r *harness.RunResult) {
			cacheRuns++
			if r.FromCache {
				cacheHits++
			}
			if inner != nil {
				inner(i, r)
			}
		}
	}

	var spanTracer *tracing.Tracer
	if *traceOut != "" {
		spanTracer = tracing.New(tracing.MintTraceID())
	}

	runExp := func(name string, fn func() (*sccsim.SweepSummary, error)) bool {
		t0 := time.Now()
		art.begin(name)
		if spanTracer != nil {
			// One root span per sweep; every scheduled run's harness.run
			// span hangs under it via the options context.
			root := spanTracer.StartSpan("sweep:"+name, tracing.SpanID{})
			opts.Ctx = tracing.NewContext(context.Background(), spanTracer, root)
			defer root.End()
		}
		sum, err := fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "sccbench: %s: %v\n", name, err)
			return false
		}
		if sum != nil {
			fmt.Printf("\n[%s sweep: %s]\n", name, sum)
			if err := art.finish(name, sum); err != nil {
				fmt.Fprintf(os.Stderr, "sccbench: %s: %v\n", name, err)
				return false
			}
		}
		fmt.Printf("[%s completed in %v]\n", name, time.Since(t0).Round(time.Millisecond))
		return true
	}

	experiments := map[string]func() (*sccsim.SweepSummary, error){
		"table1": func() (*sccsim.SweepSummary, error) { sccsim.Table1(os.Stdout); return nil, nil },
		"fig6": func() (*sccsim.SweepSummary, error) {
			f, err := sccsim.Figure6(opts)
			if err != nil {
				return nil, err
			}
			f.Write(os.Stdout)
			return f.Timing, nil
		},
		"fig7": func() (*sccsim.SweepSummary, error) {
			f, err := sccsim.Figure7(opts)
			if err != nil {
				return nil, err
			}
			f.Write(os.Stdout)
			return f.Timing, nil
		},
		"fig8": func() (*sccsim.SweepSummary, error) {
			f, err := sccsim.Figure8(opts)
			if err != nil {
				return nil, err
			}
			f.Write(os.Stdout)
			return f.Timing, nil
		},
		"fig9": func() (*sccsim.SweepSummary, error) {
			f, err := sccsim.Figure9(opts)
			if err != nil {
				return nil, err
			}
			f.Write(os.Stdout)
			return f.Timing, nil
		},
		"fig10": func() (*sccsim.SweepSummary, error) {
			f, err := sccsim.Figure10(opts)
			if err != nil {
				return nil, err
			}
			f.Write(os.Stdout)
			return f.Timing, nil
		},
		"fig11": func() (*sccsim.SweepSummary, error) {
			f, err := sccsim.Figure11(opts)
			if err != nil {
				return nil, err
			}
			f.Write(os.Stdout)
			return f.Timing, nil
		},
		"overhead": func() (*sccsim.SweepSummary, error) { sccsim.Overheads(os.Stdout); return nil, nil },
		"simpoint": func() (*sccsim.SweepSummary, error) {
			f, err := sccsim.SimPointSweep(opts)
			if err != nil {
				return nil, err
			}
			f.Write(os.Stdout)
			return nil, nil
		},
		"loadgen": func() (*sccsim.SweepSummary, error) {
			return nil, runLoadgen(opts, *serveURL, *lgRequests, *lgConcurrency)
		},
		"ext": func() (*sccsim.SweepSummary, error) {
			f, err := sccsim.Extension(opts)
			if err != nil {
				return nil, err
			}
			f.Write(os.Stdout)
			return f.Timing, nil
		},
	}

	order := []string{"table1", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "overhead", "ext"}
	selected := order
	if *experiment != "all" {
		selected = strings.Split(*experiment, ",")
		for _, name := range selected {
			if _, ok := experiments[strings.TrimSpace(name)]; !ok {
				fmt.Fprintf(os.Stderr, "sccbench: unknown experiment %q\n", name)
				return 2
			}
		}
	}
	for _, name := range selected {
		name = strings.TrimSpace(name)
		if !runExp(name, experiments[name]) {
			return 1
		}
	}
	if *cacheDir != "" {
		fmt.Fprintf(os.Stderr, "sccbench: result cache %s: %d/%d runs served from cache\n",
			*cacheDir, cacheHits, cacheRuns)
	}
	if spanTracer != nil {
		spanTracer.Finish()
		if err := tracing.WriteOTLPFile(*traceOut, "sccbench", spanTracer.Spans()); err != nil {
			fmt.Fprintf(os.Stderr, "sccbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "sccbench: wrote span trace %s (trace id %s)\n",
			*traceOut, spanTracer.TraceID())
		if *tracePath != "" {
			// The sweeps' span trees also merge into the Chrome trace as
			// their own lane, alongside the per-sweep worker processes.
			art.trace.AddSpanLane(0, "spans", spanTracer.Spans())
		}
	}
	return art.flush(*tracePath)
}

// artifacts accumulates run results per sweep and renders the -json and
// -trace outputs.
type artifacts struct {
	jsonDir string
	results map[int]*harness.RunResult // current sweep, by submission index
	trace   *obs.Trace
	index   *obs.Index
	sweeps  int
}

func (a *artifacts) begin(string) { a.results = map[int]*harness.RunResult{} }

// collect is the harness OnResult hook; the scheduler hands results back
// in submission order after each sweep completes.
func (a *artifacts) collect(i int, r *harness.RunResult) { a.results[i] = r }

// finish writes the finished sweep's manifests and appends its trace
// process.
func (a *artifacts) finish(name string, sum *sccsim.SweepSummary) error {
	if len(a.results) == 0 {
		return nil
	}
	a.sweeps++
	idxs := make([]int, 0, len(a.results))
	for i := range a.results {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)

	samples := map[int][]obs.Interval{}
	for _, i := range idxs {
		samples[i] = a.results[i].Samples
	}
	a.trace.AddSweep(name, a.sweeps, sum, samples)

	if a.jsonDir == "" {
		return nil
	}
	for _, i := range idxs {
		r := a.results[i]
		man := r.Manifest()
		if i < len(sum.Jobs) {
			js := sum.Jobs[i]
			man.Timing = &obs.Timing{
				WallMS:     js.Wall.Seconds() * 1e3,
				UopsPerSec: js.UopsPerSec(),
				Workers:    sum.Workers,
			}
		}
		// Content-addressed name: identical (workload, config) runs from
		// different experiments produce identical stats, so overwriting
		// is idempotent by construction.
		file := fmt.Sprintf("%s-%s.json", r.Workload, man.ConfigHash[:12])
		if err := man.WriteFile(filepath.Join(a.jsonDir, file)); err != nil {
			return err
		}
		a.index.Add(file, name, man)
	}
	return nil
}

// flush writes the cross-sweep artifacts (index.json, the trace file).
func (a *artifacts) flush(tracePath string) int {
	if a.jsonDir != "" {
		if err := a.index.WriteFile(filepath.Join(a.jsonDir, "index.json")); err != nil {
			fmt.Fprintf(os.Stderr, "sccbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "sccbench: wrote %d manifests + index.json to %s\n",
			len(a.index.Entries), a.jsonDir)
	}
	if tracePath != "" {
		if err := a.trace.WriteFile(tracePath); err != nil {
			fmt.Fprintf(os.Stderr, "sccbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "sccbench: wrote trace %s (open at ui.perfetto.dev)\n", tracePath)
	}
	return 0
}
