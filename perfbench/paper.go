package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"time"

	"sccsim"
	"sccsim/internal/harness"
	"sccsim/internal/pipeline"
	"sccsim/internal/runner"
	"sccsim/internal/workloads"
)

// paperKernels is the paper workload's kernel set: three predictable
// integer kernels (per-uop work), a branchy one with a large hot
// footprint, memory-bound mcf (about 7 simulated cycles per uop, so the
// per-cycle loop shows) and fp lbm. Each runs at its default budget.
var paperKernels = []string{"xalancbmk", "freqmine", "exchange2", "gcc", "mcf", "lbm"}

// paperSweep is one operation of the paper workload: a figure
// regeneration the researcher waits on. Figures 7 and 8 are left out
// because they re-simulate Figure 6's baseline and full-SCC configs.
type paperSweep struct {
	name string
	run  func(opts sccsim.Options) (*runner.Summary, *harness.SimPointSweep, error)
}

var paperSweeps = []paperSweep{
	{"sccsim.Figure6", func(o sccsim.Options) (*runner.Summary, *harness.SimPointSweep, error) {
		f, err := sccsim.Figure6(o)
		return sweepTiming(f, err, func() *runner.Summary { return f.Timing })
	}},
	{"sccsim.Figure9", func(o sccsim.Options) (*runner.Summary, *harness.SimPointSweep, error) {
		f, err := sccsim.Figure9(o)
		return sweepTiming(f, err, func() *runner.Summary { return f.Timing })
	}},
	{"sccsim.Figure10", func(o sccsim.Options) (*runner.Summary, *harness.SimPointSweep, error) {
		f, err := sccsim.Figure10(o)
		return sweepTiming(f, err, func() *runner.Summary { return f.Timing })
	}},
	{"sccsim.Figure11", func(o sccsim.Options) (*runner.Summary, *harness.SimPointSweep, error) {
		f, err := sccsim.Figure11(o)
		return sweepTiming(f, err, func() *runner.Summary { return f.Timing })
	}},
	{"sccsim.Extension", func(o sccsim.Options) (*runner.Summary, *harness.SimPointSweep, error) {
		f, err := sccsim.Extension(o)
		return sweepTiming(f, err, func() *runner.Summary { return f.Timing })
	}},
	{"sccsim.SimPointSweep", func(o sccsim.Options) (*runner.Summary, *harness.SimPointSweep, error) {
		// The serial estimator schedules no runner jobs and writes no
		// manifests; its table is what the repeated passes compare.
		f, err := sccsim.SimPointSweep(o)
		return nil, f, err
	}},
}

func sweepTiming[F any](f F, err error, sum func() *runner.Summary) (*runner.Summary, *harness.SimPointSweep, error) {
	if err != nil {
		return nil, nil, err
	}
	return sum(), nil, nil
}

type paperWorkload struct {
	kernels []workloads.Workload
	// tracedSums are the scheduler summaries of the traced pass's sweeps.
	tracedSums []*runner.Summary
}

// setup resolves and assembles the kernel set; the program reassembles
// each kernel per run, so this only checks that the inputs are valid.
func (w *paperWorkload) setup(int64) error {
	w.kernels = w.kernels[:0]
	for _, name := range paperKernels {
		k, ok := workloads.ByName(name)
		if !ok {
			return fmt.Errorf("unknown kernel %s", name)
		}
		if _, err := sccsim.Assemble(k.Source); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		w.kernels = append(w.kernels, k)
	}
	return nil
}

// paperResult is what one sweep produced, kept for the output checks
// after the timed phase: its runs in submission order, or the SimPoint
// table.
type paperResult struct {
	sweep    int
	runs     []*harness.RunResult
	simPoint *harness.SimPointSweep
}

// simPointUops is the detailed work one SimPointSweep simulates: every
// kernel's budget, cut into whole intervals.
func (w *paperWorkload) simPointUops() uint64 {
	var n uint64
	for _, k := range w.kernels {
		n += k.DefaultMaxUops / 8 * 8
	}
	return n
}

func (w *paperWorkload) run(lim limit, tr *tracer) (*phase, error) {
	p := &phase{}
	var outs []paperResult
	var runs []*harness.RunResult
	opts := sccsim.Options{
		Workloads: w.kernels,
		OnResult:  func(_ int, r *harness.RunResult) { runs = append(runs, detach(r)) },
	}
	// Each pass runs every sweep once and is one window; a time-limited
	// phase runs whole passes, starting another only while it is
	// expected to end closer to the limit than stopping now would.
	m := startMeter(0, 0)
	for i := 0; ; i++ {
		if i%len(paperSweeps) == 0 && i > 0 {
			if lim.ops == 0 {
				pass := m.since() / time.Duration(i/len(paperSweeps))
				if m.since()+pass/2 >= lim.d {
					break
				}
			}
			m.mark()
		}
		if lim.ops > 0 && p.ops >= lim.ops {
			break
		}
		sw := paperSweeps[i%len(paperSweeps)]
		runs = nil
		id := tr.start(sw.name, 0)
		t0 := time.Now()
		sum, sp, err := sw.run(opts)
		tr.end(id)
		p.ops++
		if err != nil {
			p.failed++
			continue
		}
		done := sample{at: m.since()}
		if sum != nil {
			if tr != nil {
				w.tracedSums = append(w.tracedSums, sum)
			}
			done.uops = sum.TotalUops
			for _, j := range sum.Jobs {
				p.samples = append(p.samples, sample{at: done.at, lat: j.Wall.Seconds() * 1e3, hasLat: true})
				js := t0.Add(j.Start)
				tr.add("runner.job", id, js, js.Add(j.Wall))
			}
		} else {
			done.uops = w.simPointUops()
		}
		p.samples = append(p.samples, done)
		outs = append(outs, paperResult{sweep: i % len(paperSweeps), runs: runs, simPoint: sp})
	}
	m.finish(p)
	p.out = outs
	return p, nil
}

// detach copies a result's statistics out of the simulated machine they
// point into, so keeping the result for the checks does not keep the
// whole machine alive.
func detach(r *harness.RunResult) *harness.RunResult {
	c := *r
	st := *r.Stats
	c.Stats = &st
	return &c
}

// digestRuns hashes the runs' normalized manifests in order and lists
// runs whose manifest does not encode or whose nine CPI-stack slots do
// not sum to Cycles.
func digestRuns(runs []*harness.RunResult) (d [32]byte, bad []string) {
	h := sha256.New()
	for _, r := range runs {
		man := r.Manifest()
		man.Normalize()
		if err := man.Encode(h); err != nil {
			bad = append(bad, r.Workload+": "+err.Error())
		}
		if !cpiSumsToCycles(r.Stats) {
			bad = append(bad, r.Workload+": CPI stack does not sum to cycles")
		}
	}
	copy(d[:], h.Sum(nil))
	return d, bad
}

func cpiSumsToCycles(st *pipeline.Stats) bool {
	sum := st.CPIRetiring + st.CPIBadSpecMispredict + st.CPIBadSpecSquash +
		st.CPIBackendROB + st.CPIBackendIQ + st.CPIBackendLSQ + st.CPIBackendExec +
		st.CPIFrontendICache + st.CPIFrontendUop
	return sum == st.Cycles
}

// check compares every sweep's digest with the first run of the same
// sweep across all passes; a mismatch or a bad run fails the op.
func (w *paperWorkload) check(passes []*phase) (int, error) {
	ref := map[int][32]byte{}
	simpoint := map[int]string{}
	warned := map[int]bool{}
	failed := 0
	var first error
	fail := func(err error) {
		failed++
		if first == nil {
			first = err
		}
	}
	for pi, p := range passes {
		for _, r := range p.out.([]paperResult) {
			name := paperSweeps[r.sweep].name
			var digest [32]byte
			if sp := r.simPoint; sp != nil {
				// The full-run IPC is a plain simulation result and must
				// repeat. The representatives may not, from a known
				// defect: simpoint.Select sums BBV distances over a map in
				// iteration order, so near-tied intervals can pick
				// different representatives from run to run. That is
				// reported once per sweep, not counted as a failure.
				selected := fmt.Sprint(sp.Points, sp.WeightedIPC)
				if s, seen := simpoint[r.sweep]; !seen {
					simpoint[r.sweep] = selected
				} else if s != selected && !warned[r.sweep] {
					warned[r.sweep] = true
					fmt.Fprintf(os.Stderr, "perfbench: known defect: SimPoint representatives differ between repeats: %s vs %s\n", s, selected)
				}
				digest = sha256.Sum256([]byte(fmt.Sprint(sp.Names, sp.FullIPC)))
			} else {
				var bad []string
				digest, bad = digestRuns(r.runs)
				if len(bad) > 0 {
					fail(fmt.Errorf("pass %d %s: %v", pi, name, bad))
					continue
				}
			}
			d, seen := ref[r.sweep]
			if !seen {
				ref[r.sweep] = digest
			} else if d != digest {
				fail(fmt.Errorf("pass %d %s: manifests differ from the first run of the sweep", pi, name))
			}
		}
	}
	return failed, first
}
