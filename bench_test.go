package sccsim

// One benchmark per table and figure of the paper's evaluation (§VII), plus
// the ablation benches DESIGN.md calls out. Each bench regenerates its
// artifact on a reduced interval/subset so `go test -bench=.` stays
// laptop-scale; `cmd/sccbench` runs the full-scale versions. Custom metrics
// (reduction %, speedup, energy saving) are attached via b.ReportMetric so
// bench output doubles as a results table.

import (
	"io"
	"testing"

	"sccsim/internal/harness"
	"sccsim/internal/obs"
	"sccsim/internal/pipeline"
	"sccsim/internal/stats"
	"sccsim/internal/workloads"
)

// benchOpts returns a reduced-scale option set: a class-representative
// workload subset at a short interval.
func benchOpts(b *testing.B, names ...string) Options {
	b.Helper()
	var ws []workloads.Workload
	for _, n := range names {
		w, ok := workloads.ByName(n)
		if !ok {
			b.Fatalf("unknown workload %q", n)
		}
		ws = append(ws, w)
	}
	if ws == nil {
		ws = workloads.All()
	}
	return Options{MaxUops: 25_000, Workloads: ws}
}

var benchSubset = []string{"xalancbmk", "perlbench", "mcf", "lbm", "exchange2"}

func BenchmarkTable1Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Table1(io.Discard)
		Overheads(io.Discard)
	}
}

func BenchmarkFig6Compaction(b *testing.B) {
	opts := benchOpts(b, benchSubset...)
	var f *harness.Fig6
	var err error
	for i := 0; i < b.N; i++ {
		f, err = Figure6(opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(f.AvgReduction()*100, "reduction-%")
	b.ReportMetric(f.AvgSpeedup(), "speedup-x")
}

func BenchmarkFig7FetchSources(b *testing.B) {
	opts := benchOpts(b, "xalancbmk", "perlbench", "freqmine")
	var f *harness.Fig7
	var err error
	for i := 0; i < b.N; i++ {
		f, err = Figure7(opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(stats.Mean(f.SCCOpt)*100, "opt-share-%")
}

func BenchmarkFig8Energy(b *testing.B) {
	opts := benchOpts(b, benchSubset...)
	var f *harness.Fig8
	var err error
	for i := 0; i < b.N; i++ {
		f, err = Figure8(opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(f.AvgSavings()*100, "energy-saving-%")
}

func BenchmarkFig9ValuePredictors(b *testing.B) {
	opts := benchOpts(b, "xalancbmk", "gcc", "freqmine")
	var f *harness.Fig9
	var err error
	for i := 0; i < b.N; i++ {
		f, err = Figure9(opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(stats.Mean(f.Reduction[0])*100, "h3vp-reduction-%")
	b.ReportMetric(stats.Mean(f.Reduction[1])*100, "eves-reduction-%")
}

func BenchmarkFig10PartitionSizes(b *testing.B) {
	opts := benchOpts(b, "xalancbmk", "perlbench", "vips")
	var f *harness.Fig10
	var err error
	for i := 0; i < b.N; i++ {
		f, err = Figure10(opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(f.BestSplit()), "best-opt-sets")
}

func BenchmarkFig11ConstantWidths(b *testing.B) {
	opts := benchOpts(b, "xalancbmk", "exchange2", "vips")
	var f *harness.Fig11
	var err error
	for i := 0; i < b.N; i++ {
		f, err = Figure11(opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Figure 11's claim: 16-bit retains most of the 64-bit benefit.
	b.ReportMetric(stats.Mean(f.Reduction[0])*100, "red-64b-%")
	b.ReportMetric(stats.Mean(f.Reduction[2])*100, "red-16b-%")
	b.ReportMetric(stats.Mean(f.Reduction[3])*100, "red-8b-%")
}

func BenchmarkOverheadModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Overheads(io.Discard)
	}
}

// --- single-workload microbenches: simulator throughput per class ---

func benchWorkload(b *testing.B, name string, cfg pipeline.Config) {
	w, ok := workloads.ByName(name)
	if !ok {
		b.Fatalf("unknown workload %q", name)
	}
	opts := Options{MaxUops: 25_000}
	var res *RunResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = Run(cfg, w, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Stats.IPC(), "ipc")
	b.ReportMetric(res.Stats.DynamicUopReduction()*100, "reduction-%")
}

// BenchmarkSamplerOverhead measures the cost of the observability layer's
// interval sampling against the same run with sampling disabled (the
// default). The hook is a nil-check per commit group when off and a
// Stats copy per 10k committed uops when on; the acceptance bar for the
// obs layer is ≤5% overhead.
func BenchmarkSamplerOverhead(b *testing.B) {
	w, ok := workloads.ByName("xalancbmk")
	if !ok {
		b.Fatal("unknown workload")
	}
	for _, every := range []uint64{0, 10_000} {
		nm := "sampling-off"
		if every > 0 {
			nm = "sampling-10k"
		}
		b.Run(nm, func(b *testing.B) {
			opts := Options{MaxUops: 25_000, SampleEvery: every}
			var res *RunResult
			var err error
			for i := 0; i < b.N; i++ {
				res, err = Run(SCCConfig(LevelFull), w, opts)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(res.Samples)), "intervals")
		})
	}
}

// BenchmarkPipeTracerOverhead measures the per-uop lifecycle tracer
// against the same run with tracing disabled (the default). Off, the
// tracer costs one nil-check per micro-op; on, it mints a UopTrace per
// fetched micro-op and copies it into the ring at retire.
func BenchmarkPipeTracerOverhead(b *testing.B) {
	w, ok := workloads.ByName("xalancbmk")
	if !ok {
		b.Fatal("unknown workload")
	}
	for _, traced := range []bool{false, true} {
		nm := "tracing-off"
		if traced {
			nm = "tracing-on"
		}
		b.Run(nm, func(b *testing.B) {
			var tracer *obs.PipeTracer
			opts := Options{MaxUops: 25_000}
			if traced {
				tracer = obs.NewPipeTracer(0)
				opts.Observe = tracer.Attach
			}
			for i := 0; i < b.N; i++ {
				if _, err := Run(SCCConfig(LevelFull), w, opts); err != nil {
					b.Fatal(err)
				}
			}
			if tracer != nil {
				b.ReportMetric(float64(tracer.Total())/float64(b.N), "uops-traced")
			}
		})
	}
}

// BenchmarkJournalOverhead measures the SCC journal against the same run
// with the journal detached (the default). Off, every hook site is a
// nil-check and Compact collects no remarks — the disabled path must not
// allocate per micro-op; on, the unit collects remarks and the aggregator
// folds the event stream.
func BenchmarkJournalOverhead(b *testing.B) {
	w, ok := workloads.ByName("xalancbmk")
	if !ok {
		b.Fatal("unknown workload")
	}
	for _, journaled := range []bool{false, true} {
		nm := "journal-off"
		if journaled {
			nm = "journal-on"
		}
		b.Run(nm, func(b *testing.B) {
			opts := Options{MaxUops: 25_000, Journal: journaled}
			var res *RunResult
			var err error
			for i := 0; i < b.N; i++ {
				res, err = Run(SCCConfig(LevelFull), w, opts)
				if err != nil {
					b.Fatal(err)
				}
			}
			if journaled {
				b.ReportMetric(float64(res.OptReport.Lines), "lines")
			}
		})
	}
}

func BenchmarkSimBaselineXalancbmk(b *testing.B) { benchWorkload(b, "xalancbmk", BaselineConfig()) }
func BenchmarkSimSCCXalancbmk(b *testing.B)      { benchWorkload(b, "xalancbmk", SCCConfig(LevelFull)) }
func BenchmarkSimSCCMcf(b *testing.B)            { benchWorkload(b, "mcf", SCCConfig(LevelFull)) }
func BenchmarkSimSCCLbm(b *testing.B)            { benchWorkload(b, "lbm", SCCConfig(LevelFull)) }

// BenchmarkMachineRun is the single-run hot-path headline: one machine,
// one workload, simulated uops/sec as the custom metric — the number the
// throughput-overhaul work optimizes. Baseline and full SCC sub-benches
// cover both fetch paths (decode/unopt vs the compacted-stream dry-run
// machinery).
func BenchmarkMachineRun(b *testing.B) {
	configs := []struct {
		name string
		cfg  pipeline.Config
	}{
		{"baseline", BaselineConfig()},
		{"scc-full", SCCConfig(LevelFull)},
	}
	run := func(b *testing.B, w workloads.Workload, cfg pipeline.Config, opts Options) {
		var res *RunResult
		var err error
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err = Run(cfg, w, opts)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(res.Stats.CommittedUops)*float64(b.N)/b.Elapsed().Seconds(), "uops/sec")
	}
	w, ok := workloads.ByName("xalancbmk")
	if !ok {
		b.Fatal("unknown workload")
	}
	for _, c := range configs {
		b.Run(c.name, func(b *testing.B) { run(b, w, c.cfg, Options{MaxUops: 25_000}) })
	}
	// The perf ledger's paper kernels (perfbench's paper workload) at
	// their default budgets.
	for _, name := range []string{"xalancbmk", "freqmine", "exchange2", "gcc", "mcf", "lbm"} {
		k, ok := workloads.ByName(name)
		if !ok {
			b.Fatalf("unknown workload %q", name)
		}
		for _, c := range configs {
			b.Run("kernel/"+name+"/"+c.name, func(b *testing.B) { run(b, k, c.cfg, Options{}) })
		}
	}
}

// --- ablations (design choices DESIGN.md calls out) ---

// BenchmarkAblationHotnessDecay sweeps the optimized-partition hotness
// decay period around the paper's chosen 3 cycles.
func BenchmarkAblationHotnessDecay(b *testing.B) {
	w, _ := workloads.ByName("xalancbmk")
	for _, decay := range []int{1, 3, 28} {
		b.Run(name("decay", decay), func(b *testing.B) {
			cfg := SCCConfig(LevelFull)
			cfg.UC.OptDecay = decay
			var res *RunResult
			var err error
			for i := 0; i < b.N; i++ {
				res, err = Run(cfg, w, Options{MaxUops: 25_000})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Stats.Cycles), "cycles")
		})
	}
}

// BenchmarkAblationConfidenceThreshold compares the artifact's SCC
// threshold (5) with the conservative baseline threshold (15).
func BenchmarkAblationConfidenceThreshold(b *testing.B) {
	w, _ := workloads.ByName("perlbench")
	for _, thr := range []int{5, 10, 15} {
		b.Run(name("conf", thr), func(b *testing.B) {
			cfg := SCCConfig(LevelFull)
			cfg.SCC.VPConfThreshold = thr
			var res *RunResult
			var err error
			for i := 0; i < b.N; i++ {
				res, err = Run(cfg, w, Options{MaxUops: 25_000})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Stats.DynamicUopReduction()*100, "reduction-%")
			b.ReportMetric(float64(res.Stats.InvariantViolations), "violations")
		})
	}
}

// BenchmarkAblationQueueSizes sweeps the compaction request queue depth
// (§III: 6 entries suffice) and the write-buffer capacity.
func BenchmarkAblationQueueSizes(b *testing.B) {
	w, _ := workloads.ByName("xalancbmk")
	for _, depth := range []int{1, 6, 16} {
		b.Run(name("reqq", depth), func(b *testing.B) {
			cfg := SCCConfig(LevelFull)
			cfg.SCC.RequestQueueDepth = depth
			var res *RunResult
			var err error
			for i := 0; i < b.N; i++ {
				res, err = Run(cfg, w, Options{MaxUops: 25_000})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Stats.DynamicUopReduction()*100, "reduction-%")
		})
	}
	for _, slots := range []int{6, 12, 18} {
		b.Run(name("wbuf", slots), func(b *testing.B) {
			cfg := SCCConfig(LevelFull)
			cfg.SCC.WriteBufferSlots = slots
			var res *RunResult
			var err error
			for i := 0; i < b.N; i++ {
				res, err = Run(cfg, w, Options{MaxUops: 25_000})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Stats.DynamicUopReduction()*100, "reduction-%")
		})
	}
}

// BenchmarkAblationProfitability disables the §V profitability machinery
// (squash-rate phase-out gate + VP-state match) to quantify its value.
func BenchmarkAblationProfitability(b *testing.B) {
	w, _ := workloads.ByName("gcc")
	for _, gated := range []bool{true, false} {
		nm := "profitability-on"
		if !gated {
			nm = "profitability-off"
		}
		b.Run(nm, func(b *testing.B) {
			cfg := SCCConfig(LevelFull)
			if !gated {
				cfg.UC.SquashGate = 0
			}
			var res *RunResult
			var err error
			for i := 0; i < b.N; i++ {
				res, err = Run(cfg, w, Options{MaxUops: 25_000})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Stats.Cycles), "cycles")
			b.ReportMetric(res.Stats.SquashOverhead()*100, "squash-%")
		})
	}
}

// BenchmarkExtensionFPFold measures the paper's invited future-work
// extension (FP compaction) on the FP-dominated kernels the baseline SCC
// cannot touch.
func BenchmarkExtensionFPFold(b *testing.B) {
	for _, wn := range []string{"lbm", "swaptions"} {
		w, _ := workloads.ByName(wn)
		for _, ext := range []bool{false, true} {
			nm := wn + "/paper-config"
			if ext {
				nm = wn + "/fp-extension"
			}
			b.Run(nm, func(b *testing.B) {
				cfg := SCCConfig(LevelFull)
				cfg.SCC.EnableFPFold = ext
				cfg.SCC.EnableComplexFold = ext
				var res *RunResult
				var err error
				for i := 0; i < b.N; i++ {
					res, err = Run(cfg, w, Options{MaxUops: 25_000})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(res.Stats.DynamicUopReduction()*100, "reduction-%")
				b.ReportMetric(float64(res.Stats.Cycles), "cycles")
			})
		}
	}
}

func name(prefix string, v int) string {
	return prefix + "-" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
