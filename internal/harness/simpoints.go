package harness

import (
	"context"
	"fmt"
	"io"
	"sort"

	"sccsim/internal/emu"
	"sccsim/internal/pipeline"
	"sccsim/internal/runner"
	"sccsim/internal/scc"
	"sccsim/internal/simpoint"
	"sccsim/internal/workloads"
)

// SimPointResult is a SimPoint-style whole-program estimate (§VI's
// methodology): the program is profiled into basic-block-vector intervals,
// k representatives are chosen, the pipeline measures each representative,
// and whole-program metrics are the weighted sums.
type SimPointResult struct {
	Points []simpoint.SimPoint
	// Per-representative measurements, aligned with Points.
	IntervalCycles []uint64
	IntervalUops   []uint64
	// WeightedIPC is the SimPoint estimate; FullIPC is the measured
	// whole-run value it approximates.
	WeightedIPC float64
	FullIPC     float64
}

// ProfileBBV runs the workload functionally and fingerprints execution
// intervals by basic-block vector, attributing each micro-op to the macro
// PC that started its basic block. Only whole intervals of the budget are
// profiled, so every interval can be measured at full length; a program
// that halts early still ends with its short last interval.
func ProfileBBV(w workloads.Workload, intervalUops uint64, budget uint64) []simpoint.Interval {
	if intervalUops > 0 {
		budget -= budget % intervalUops
	}
	m := emu.New(w.Program())
	if w.MemInit != nil {
		w.MemInit(m.Mem)
	}
	prof := simpoint.NewProfile(intervalUops)
	blockHead := m.PC()
	for m.UopCount < budget {
		res, ok := m.StepUop()
		if !ok {
			break
		}
		prof.Touch(blockHead)
		if res.U.IsBranchKind() && res.EndsMacro {
			blockHead = res.Target
		}
	}
	return prof.Intervals()
}

// SimPointEstimate profiles the workload, selects up to k simpoints, runs
// the pipeline across interval boundaries (the machine is resumable, so
// each interval is measured in one pass with full warmup), and returns the
// weighted whole-program estimate next to the true full-run measurement.
func SimPointEstimate(cfg pipeline.Config, w workloads.Workload, intervalUops uint64, k int, opts Options) (*SimPointResult, error) {
	budget := opts.maxUops(w)
	intervals := ProfileBBV(w, intervalUops, budget)
	if len(intervals) == 0 {
		return nil, fmt.Errorf("harness: %s produced no intervals", w.Name)
	}
	points := simpoint.Select(intervals, k)

	// One pipeline pass, sampling cumulative (cycles, uops) at every
	// interval boundary.
	m, err := pipeline.New(cfg, w.Program())
	if err != nil {
		return nil, err
	}
	if w.MemInit != nil {
		w.MemInit(m.Oracle.Mem)
	}
	type sample struct{ cycles, uops uint64 }
	samples := make([]sample, len(intervals)+1)
	for i := 1; i <= len(intervals); i++ {
		m.Cfg.MaxUops = uint64(i) * intervalUops
		st, err := m.Run()
		if err != nil {
			return nil, err
		}
		samples[i] = sample{cycles: st.Cycles, uops: st.CommittedUops}
	}
	full := samples[len(intervals)]

	res := &SimPointResult{Points: points}
	var weighted float64
	for _, p := range points {
		lo, hi := samples[p.Interval], samples[p.Interval+1]
		cyc := hi.cycles - lo.cycles
		uops := hi.uops - lo.uops
		res.IntervalCycles = append(res.IntervalCycles, cyc)
		res.IntervalUops = append(res.IntervalUops, uops)
		if cyc > 0 {
			weighted += p.Weight * (float64(uops) / float64(cyc))
		}
	}
	res.WeightedIPC = weighted
	if full.cycles > 0 {
		res.FullIPC = float64(full.uops) / float64(full.cycles)
	}
	return res, nil
}

// SimPoint sweep defaults: each workload's budget is cut into this many
// intervals, and up to this many representatives are measured.
const (
	simPointIntervalsPerRun = 8
	simPointK               = 4
)

// SimPointSweep is the SimPoint-estimation table: per-workload weighted
// whole-program IPC estimates under the full-SCC configuration, next to
// the measured full-run IPC they approximate.
type SimPointSweep struct {
	Names       []string
	WeightedIPC []float64
	FullIPC     []float64
	Points      []int // representatives measured per workload
}

// SimPointSweepRun estimates every workload's whole-program IPC from
// SimPoint representatives. Each workload is one scheduler job running
// SimPointEstimate, spread across Options.Parallel workers; rows come
// back in workload order, so the table is the same at any worker count.
func SimPointSweepRun(opts Options) (*SimPointSweep, error) {
	ws := opts.workloads()
	cfg := pipeline.IcelakeSCC(scc.LevelFull)
	jobs := make([]runner.Job[*SimPointResult], len(ws))
	for i, w := range ws {
		interval := opts.maxUops(w) / simPointIntervalsPerRun
		if interval == 0 {
			interval = opts.maxUops(w)
		}
		jobs[i] = runner.Job[*SimPointResult]{
			Name: w.Name,
			Run: func(context.Context) (*SimPointResult, error) {
				return SimPointEstimate(cfg, w, interval, simPointK, opts)
			},
		}
	}
	results, _, err := runner.Run(opts.ctx(), opts.runnerConfig(), jobs)
	if err != nil {
		return nil, err
	}
	f := &SimPointSweep{}
	for i, r := range results {
		f.Names = append(f.Names, ws[i].Name)
		f.WeightedIPC = append(f.WeightedIPC, r.WeightedIPC)
		f.FullIPC = append(f.FullIPC, r.FullIPC)
		f.Points = append(f.Points, len(r.Points))
	}
	return f, nil
}

// Write prints the estimation table.
func (f *SimPointSweep) Write(w io.Writer) {
	section(w, "SimPoint whole-program IPC estimates")
	t := newTable("benchmark", "points", "weighted ipc", "full ipc")
	for i, name := range f.Names {
		t.row(name, fmt.Sprintf("%d", f.Points[i]), fmt.Sprintf("%.3f", f.WeightedIPC[i]), fmt.Sprintf("%.3f", f.FullIPC[i]))
	}
	t.write(w)
}

// blockHeads returns the static basic-block leader PCs of a program
// (entry, branch targets, fall-throughs after branches) — a diagnostic
// used by tests to sanity-check BBV coverage.
func blockHeads(w workloads.Workload) []uint64 {
	p := w.Program()
	heads := map[uint64]bool{p.Entry: true}
	for _, in := range p.Insts {
		if in.Op.IsBranch() {
			if in.Target != 0 {
				heads[in.Target] = true
			}
			heads[in.NextAddr()] = true
		}
	}
	var out []uint64
	for h := range heads {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
