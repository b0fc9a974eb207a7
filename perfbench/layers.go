package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"runtime/metrics"
	"time"

	"sccsim/internal/asm"
	"sccsim/internal/cache"
	"sccsim/internal/emu"
	"sccsim/internal/harness"
	"sccsim/internal/obs"
	"sccsim/internal/pipeline"
	"sccsim/internal/runner"
	"sccsim/internal/simpoint"
	"sccsim/internal/tracing"
	"sccsim/internal/uopcache"
	"sccsim/internal/vpred"
	"sccsim/internal/workloads"
)

// perLayer lists every per-layer metric a traced run reports, in the
// order BENCHMARK.json names them. A layer a workload does not exercise
// reports 0 (the serve.* metrics outside the serve workload, for one).
var perLayer = []struct{ name, unit string }{
	{"asm.assemble_ms", "ms"},
	{"pipeline.new_ms", "ms"},
	{"pipeline.new_alloc_kb", "KB"},
	{"cache.new_hierarchy_ms", "ms"},
	{"cache.new_hierarchy_alloc_kb", "KB"},
	{"vpred.new_ms", "ms"},
	{"uopcache.new_ms", "ms"},
	{"pipeline.run_ms", "ms"},
	{"pipeline.ns_per_uop.base", "ns"},
	{"pipeline.ns_per_uop.scc", "ns"},
	{"pipeline.ns_per_cycle", "ns"},
	{"pipeline.run_alloc_kb", "KB"},
	{"pipeline.gc_cycles", "count"},
	{"emu.ns_per_uop", "ns"},
	{"scc.eliminated_uops", "count"},
	{"scc.opt_streams", "count"},
	{"scc.useful_ratio", "ratio"},
	{"scc.accept_ratio", "ratio"},
	{"uopcache.decode_share", "ratio"},
	{"uopcache.opt_share", "ratio"},
	{"bpred.mispredicts_per_kuop", "1/kuop"},
	{"vpred.lookups_per_kuop", "1/kuop"},
	{"cache.l1d_miss_ratio", "ratio"},
	{"cache.dram_per_kuop", "1/kuop"},
	{"pipeline.sim_cycles", "count"},
	{"pipeline.committed_uops", "count"},
	{"obs.manifest_ms", "ms"},
	{"obs.manifest_bytes", "bytes"},
	{"obs.config_hash_us", "us"},
	{"harness.run_overhead_ms", "ms"},
	{"harness.probe_hit_ms", "ms"},
	{"harness.probe_miss_ms", "ms"},
	{"harness.simpoint_estimate_ms", "ms"},
	{"simpoint.profile_ms", "ms"},
	{"simpoint.select_ms", "ms"},
	{"runner.efficiency", "ratio"},
	{"runner.wait_ms_p50", "ms"},
	{"runner.job_ms_p50", "ms"},
	{"serve.admit_hit_ms", "ms"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.queue_wait_ms_tail", "ms"},
	{"serve.run_ms_p50", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.busy_ratio", "ratio"},
	{"serve.rejected_429", "count"},
	{"serve.max_rps_at_slo", "1/s"},
	{"loadgen.lag_ms_tail", "ms"},
	{"trace.overhead_pct", "%"},
}

// layerItem is one (program, machine, budget) the layer walk measures.
type layerItem struct {
	wl      workloads.Workload
	cfg     pipeline.Config
	maxUops uint64 // 0 keeps the program's default budget
}

// itemsFor crosses programs with the baseline and full-SCC machines.
func itemsFor(ws []workloads.Workload, maxUops uint64) []layerItem {
	var items []layerItem
	for _, w := range ws {
		for _, c := range machines {
			items = append(items, layerItem{wl: w, cfg: c.cfg, maxUops: maxUops})
		}
	}
	return items
}

// allocMeter reads the runtime's cumulative allocation and GC counters.
type allocMeter struct{ s []metrics.Sample }

func newAllocMeter() *allocMeter {
	return &allocMeter{s: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}}
}

func (a *allocMeter) read() (bytes, gcs uint64) {
	metrics.Read(a.s)
	return a.s[0].Value.Uint64(), a.s[1].Value.Uint64()
}

// walk holds the layer walk's samples by metric name; each metric is
// reported as the median of its samples, or from totals for the
// simulated counts.
type walk struct {
	tr      *tracer
	samples map[string][]float64
	tot     map[string]float64
	am      *allocMeter
}

func (w *walk) add(name string, v float64) { w.samples[name] = append(w.samples[name], v) }

// timed runs f inside a span and returns its wall time in ms and the
// bytes it allocated.
func (w *walk) timed(name string, parent int, f func()) (ms, allocKB float64) {
	id := w.tr.start(name, parent)
	b0, _ := w.am.read()
	t0 := time.Now()
	f()
	ms = time.Since(t0).Seconds() * 1e3
	b1, _ := w.am.read()
	w.tr.end(id)
	return ms, float64(b1-b0) / 1024
}

// walkLayers times each module's public calls on every item, in one
// goroutine so allocation counts belong to the call measured.
func walkLayers(tr *tracer, items []layerItem, m metricSet) error {
	w := &walk{tr: tr, samples: map[string][]float64{}, tot: map[string]float64{}, am: newAllocMeter()}
	probeDir, err := os.MkdirTemp(workDir, "probe-cache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(probeDir)
	var sums []*runner.Summary
	for _, it := range items {
		root := tr.start("layer.item", 0)
		opts := harness.Options{MaxUops: it.maxUops, Parallel: 1}
		budget := it.maxUops
		if budget == 0 {
			budget = it.wl.DefaultMaxUops
		}
		cfg := it.cfg
		cfg.MaxUops = budget

		var prog *asm.Program
		ms, _ := w.timed("asm.Assemble", root, func() { prog, err = asm.Assemble(it.wl.Source) })
		if err != nil {
			return fmt.Errorf("%s: %w", it.wl.Name, err)
		}
		w.add("asm.assemble_ms", ms)
		ms, kb := w.timed("cache.NewHierarchy", root, func() { _ = cache.NewHierarchy(cfg.Hier) })
		w.add("cache.new_hierarchy_ms", ms)
		w.add("cache.new_hierarchy_alloc_kb", kb)
		ms, _ = w.timed("vpred.New", root, func() { _ = vpred.New(cfg.ValuePredictor) })
		w.add("vpred.new_ms", ms)
		ms, _ = w.timed("uopcache.New", root, func() { _ = uopcache.New(cfg.UC) })
		w.add("uopcache.new_ms", ms)

		var mach *pipeline.Machine
		prepMS, kb := w.timed("harness.Prepare", root, func() { mach, err = harness.Prepare(it.cfg, it.wl, opts) })
		if err != nil {
			return err
		}
		w.add("pipeline.new_ms", prepMS)
		w.add("pipeline.new_alloc_kb", kb)

		var st *pipeline.Stats
		_, gc0 := w.am.read()
		runMS, kb := w.timed("pipeline.Machine.Run", root, func() { st, err = mach.Run() })
		if err != nil {
			return err
		}
		_, gc1 := w.am.read()
		w.add("pipeline.run_ms", runMS)
		w.add("pipeline.run_alloc_kb", kb)
		w.add("pipeline.gc_cycles", float64(gc1-gc0))
		ns := runMS * 1e6
		if it.cfg.SCCEnabled {
			w.add("pipeline.ns_per_uop.scc", ratio(ns, float64(st.CommittedUops)))
		} else {
			w.add("pipeline.ns_per_uop.base", ratio(ns, float64(st.CommittedUops)))
		}
		w.add("pipeline.ns_per_cycle", ratio(ns, float64(st.Cycles)))
		w.simCounts(st, mach)

		oracleUops := mach.Oracle.UopCount
		ms, _ = w.timed("emu.Run", root, func() {
			e := emu.New(prog)
			if it.wl.MemInit != nil {
				it.wl.MemInit(e.Mem)
			}
			e.Run(oracleUops)
		})
		w.add("emu.ns_per_uop", ratio(ms*1e6, float64(oracleUops)))

		// RunOne with the program's own request tracing bound in, so its
		// prepare and simulate spans can be taken off the call's wall
		// time: what is left is the harness's own overhead.
		var res *harness.RunResult
		var sum *runner.Summary
		ptr := tracing.New(tracing.MintTraceID())
		top := ptr.StartSpan("perfbench", tracing.SpanID{})
		traced := opts
		traced.Ctx = tracing.NewContext(context.Background(), ptr, top)
		oneMS, _ := w.timed("harness.RunOneTimed", root, func() { res, sum, err = harness.RunOneTimed(it.cfg, it.wl, traced) })
		top.End()
		ptr.Finish()
		if err != nil {
			return err
		}
		inner := 0.0
		for _, sd := range ptr.Spans() {
			if sd.Name == "harness.prepare" || sd.Name == "harness.simulate" {
				inner += sd.End.Sub(sd.Start).Seconds() * 1e3
			}
		}
		if !reflect.DeepEqual(*res.Stats, *st) {
			return fmt.Errorf("%s: harness.RunOne and Prepare+Run disagree on the simulated statistics", it.wl.Name)
		}
		sums = append(sums, sum)
		w.add("harness.run_overhead_ms", oneMS-inner)

		var buf bytes.Buffer
		ms, _ = w.timed("obs.Manifest", root, func() {
			man := res.Manifest()
			man.Normalize()
			err = man.Encode(&buf)
		})
		if err != nil {
			return err
		}
		w.add("obs.manifest_ms", ms)
		w.add("obs.manifest_bytes", float64(buf.Len()))
		ms, _ = w.timed("obs.ConfigHash", root, func() { _ = obs.ConfigHash(it.wl.Name, res.Config) })
		w.add("obs.config_hash_us", ms*1e3)

		var hit *harness.RunResult
		ms, _ = w.timed("harness.Probe", root, func() { hit = harness.Probe(probeDir, it.wl, it.cfg, opts) })
		if hit != nil {
			return fmt.Errorf("%s: probe of an empty cache hit", it.wl.Name)
		}
		w.add("harness.probe_miss_ms", ms)
		cached := opts
		cached.CacheDir = probeDir
		if _, err := harness.RunOne(it.cfg, it.wl, cached); err != nil {
			return err
		}
		ms, _ = w.timed("harness.Probe", root, func() { hit = harness.Probe(probeDir, it.wl, it.cfg, opts) })
		if hit == nil {
			return fmt.Errorf("%s: probe after write-back missed", it.wl.Name)
		}
		w.add("harness.probe_hit_ms", ms)

		if it.cfg.SCCEnabled {
			if err := w.simPoint(root, it, budget); err != nil {
				return err
			}
		}
		tr.end(root)
	}
	for name, xs := range w.samples {
		m[name] = median(xs)
	}
	t := w.tot
	m["scc.eliminated_uops"] = t["elim"]
	m["scc.opt_streams"] = t["streams"]
	m["scc.useful_ratio"] = ratio(t["streams"], t["streams"]+t["squashed"])
	m["scc.accept_ratio"] = ratio(t["accepted"], t["requested"])
	fetched := t["decode"] + t["unopt"] + t["opt"]
	m["uopcache.decode_share"] = ratio(t["decode"], fetched)
	m["uopcache.opt_share"] = ratio(t["opt"], fetched)
	m["bpred.mispredicts_per_kuop"] = 1e3 * ratio(t["mispredicts"], t["uops"])
	m["vpred.lookups_per_kuop"] = 1e3 * ratio(t["vplookups"], t["uops"])
	m["cache.l1d_miss_ratio"] = ratio(t["l1dmiss"], t["l1d"])
	m["cache.dram_per_kuop"] = 1e3 * ratio(t["dram"], t["uops"])
	m["pipeline.sim_cycles"] = t["cycles"]
	m["pipeline.committed_uops"] = t["uops"]
	runnerMetrics(sums, m)
	return nil
}

// simCounts adds one run's simulated statistics to the totals.
func (w *walk) simCounts(st *pipeline.Stats, m *pipeline.Machine) {
	t := w.tot
	t["elim"] += float64(st.EliminatedUops())
	t["streams"] += float64(st.OptStreams)
	t["squashed"] += float64(st.OptStreamsSquashed)
	if m.Unit != nil {
		u := m.Unit.Stats
		t["accepted"] += float64(u.Requests)
		t["requested"] += float64(u.Requests + u.Rejected + u.RejectedDisabled)
	}
	t["decode"] += float64(st.UopsFromDecode)
	t["unopt"] += float64(st.UopsFromUnopt)
	t["opt"] += float64(st.UopsFromOpt)
	t["mispredicts"] += float64(st.BranchMispredicts)
	t["vplookups"] += float64(st.VPLookups)
	t["l1dmiss"] += float64(m.Hier.L1D.Stats.Misses)
	t["l1d"] += float64(m.Hier.L1D.Stats.Hits + m.Hier.L1D.Stats.Misses)
	t["dram"] += float64(m.Hier.DRAMAccesses)
	t["cycles"] += float64(st.Cycles)
	t["uops"] += float64(st.CommittedUops)
}

// simPoint times the SimPoint layers the paper's SimPointSweep uses:
// the functional BBV profile, representative selection, and the whole
// estimate, at the sweep's 8 intervals and k=4.
func (w *walk) simPoint(root int, it layerItem, budget uint64) error {
	interval := budget / 8
	var ivs []simpoint.Interval
	ms, _ := w.timed("harness.ProfileBBV", root, func() { ivs = harness.ProfileBBV(it.wl, interval, budget) })
	w.add("simpoint.profile_ms", ms)
	ms, _ = w.timed("simpoint.Select", root, func() { _ = simpoint.Select(ivs, 4) })
	w.add("simpoint.select_ms", ms)
	var err error
	ms, _ = w.timed("harness.SimPointEstimate", root, func() {
		_, err = harness.SimPointEstimate(it.cfg, it.wl, interval, 4, harness.Options{MaxUops: it.maxUops})
	})
	w.add("harness.simpoint_estimate_ms", ms)
	return err
}

// runnerMetrics reads the scheduler's public per-job telemetry: how
// much of the workers' time went to jobs, how long jobs waited for a
// worker, and how long they ran.
func runnerMetrics(sums []*runner.Summary, m metricSet) {
	var busy, avail float64
	var wait, job []float64
	for _, s := range sums {
		if s == nil {
			continue
		}
		avail += s.Wall.Seconds() * float64(s.Workers)
		for _, j := range s.Jobs {
			busy += j.Wall.Seconds()
			wait = append(wait, j.Start.Seconds()*1e3)
			job = append(job, j.Wall.Seconds()*1e3)
		}
	}
	m["runner.efficiency"] = ratio(busy, avail)
	m["runner.wait_ms_p50"] = median(wait)
	m["runner.job_ms_p50"] = median(job)
}

// serveMetrics fills the serve.* and loadgen.* metrics from a traced
// serve pass and the rate ladder; other workloads report them as 0.
func serveMetrics(st *serveTrace, ladder []ladderStep, m metricSet) {
	for _, name := range []string{"serve.admit_hit_ms", "serve.queue_wait_ms_p50", "serve.queue_wait_ms_tail",
		"serve.run_ms_p50", "serve.cache_hit_ratio", "serve.busy_ratio", "serve.rejected_429",
		"serve.max_rps_at_slo", "loadgen.lag_ms_tail"} {
		m[name] = 0
	}
	if st == nil {
		return
	}
	var hitMS, lag []float64
	for _, r := range st.res {
		lag = append(lag, r.lagMS())
		if r.err == nil && r.fromCache {
			hitMS = append(hitMS, r.admitMS)
		}
	}
	var runTotal float64
	for _, x := range st.run {
		runTotal += x
	}
	qw := summarize(st.queueWait)
	m["serve.admit_hit_ms"] = median(hitMS)
	m["serve.queue_wait_ms_p50"] = qw.P50
	m["serve.queue_wait_ms_tail"] = qw.Tail
	m["serve.run_ms_p50"] = median(st.run)
	m["serve.cache_hit_ratio"] = ratio(float64(st.hits), float64(st.done))
	m["serve.busy_ratio"] = ratio(runTotal/1e3, st.wall.Seconds()*float64(workers()))
	m["serve.rejected_429"] = float64(st.rejected)
	m["serve.max_rps_at_slo"] = maxRPSAtSLO(ladder, serveSLOms, workers())
	m["loadgen.lag_ms_tail"] = summarize(lag).Tail
}

func workers() int { return runtime.GOMAXPROCS(0) }

// layers: the paper workload walks its six kernels at their default
// budgets on both machines, and reads the scheduler telemetry of the
// sweeps in its traced pass.
func (w *paperWorkload) layers(tr *tracer, m metricSet) error {
	if err := walkLayers(tr, itemsFor(w.kernels, 0), m); err != nil {
		return err
	}
	runnerMetrics(w.tracedSums, m)
	serveMetrics(nil, nil, m)
	return nil
}

// layers: the serve workload walks the kernels at the 20k-uop budget
// its jobs use, reads the traced pass's server-side figures and runs
// the rate ladder.
func (w *serveWorkload) layers(tr *tracer, m metricSet) error {
	if err := walkLayers(tr, itemsFor(w.kernels, 20_000), m); err != nil {
		return err
	}
	ladder, err := w.runLadder()
	if err != nil {
		return err
	}
	serveMetrics(w.traced, ladder, m)
	return nil
}

// layers: the footprint workload walks its first two programs.
func (w *footprintWorkload) layers(tr *tracer, m metricSet) error {
	var ws []workloads.Workload
	for _, p := range w.progs[:2] {
		ws = append(ws, p.wl)
	}
	if err := walkLayers(tr, itemsFor(ws, 0), m); err != nil {
		return err
	}
	serveMetrics(nil, nil, m)
	return nil
}
