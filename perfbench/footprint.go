package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"sccsim"
	"sccsim/internal/asm"
	"sccsim/internal/emu"
	"sccsim/internal/harness"
	"sccsim/internal/pipeline"
	"sccsim/internal/uop"
	"sccsim/internal/workloads"
)

// Footprint programs: a hot predictable loop, then a cold body of
// distinct foldable blocks whose static code is several times the
// 2304-uop micro-op cache, walked a few times, then halt. The cold body
// misses the micro-op cache, so fetch goes through the icache and legacy
// decode; the blocks run too rarely to be compacted.
const (
	footprintPrograms = 8
	footprintOutBase  = 0x400000 // every block stores its result here
	uopCacheCapacity  = 2304
)

// machines are the baseline and full-SCC machines every program runs
// on.
var machines = []struct {
	name string
	cfg  pipeline.Config
}{
	{"baseline", sccsim.BaselineConfig()},
	{"scc", sccsim.SCCConfig(sccsim.LevelFull)},
}

// footprintSource generates program i of the seed's set. The same
// (seed, i) always gives byte-identical source.
func footprintSource(seed int64, i int) (src string, outWords int) {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
	blocks := 780 + rng.Intn(40)
	const reps = 3
	hotIters := 1400 + rng.Intn(200)
	var b strings.Builder
	fmt.Fprintf(&b, "\t.text\n\t.entry main\nmain:\n")
	fmt.Fprintf(&b, "\tmovi r1, 0\n\tmovi r2, %d\n\tmovi r12, %d\n\tmovi r10, %d\n", rng.Intn(1000), hotIters, footprintOutBase)
	// Hot loop: a foldable immediate chain plus a loop-carried sum.
	fmt.Fprintf(&b, "hot:\n\tmovi r4, %d\n\taddi r5, r4, %d\n\tshli r6, r5, 1\n\tadd  r2, r2, r6\n",
		3+rng.Intn(90), 1+rng.Intn(13))
	fmt.Fprintf(&b, "\txor  r3, r2, r1\n\tandi r3, r3, 255\n\tadd  r2, r2, r3\n")
	fmt.Fprintf(&b, "\taddi r1, r1, 1\n\tcmp  r1, r12\n\tblt  hot\n")
	fmt.Fprintf(&b, "\tmovi r11, %d\ncold:\n\tjmp  b0\n", reps)
	regs := []string{"r3", "r4", "r5", "r6", "r7", "r8", "r9"}
	ops := []string{"addi", "xori", "ori", "andi", "shli", "subi"}
	for k := 0; k < blocks; k++ {
		fmt.Fprintf(&b, "\t.align 32\nb%d:\n", k)
		a, c := regs[rng.Intn(len(regs))], regs[rng.Intn(len(regs))]
		fmt.Fprintf(&b, "\tmovi %s, %d\n", a, rng.Intn(1<<16))
		for n := 2 + rng.Intn(5); n > 0; n-- {
			op := ops[rng.Intn(len(ops))]
			imm := 1 + rng.Intn(255)
			if op == "shli" {
				imm = 1 + rng.Intn(7)
			}
			fmt.Fprintf(&b, "\t%s %s, %s, %d\n", op, c, a, imm)
			a, c = c, regs[rng.Intn(len(regs))]
		}
		fmt.Fprintf(&b, "\tadd  r2, r2, %s\n\tst   [r10+%d], r2\n", a, 8*k)
		if k == blocks-1 {
			fmt.Fprintf(&b, "\tjmp  tail\n")
		} else {
			fmt.Fprintf(&b, "\tjmp  b%d\n", k+1)
		}
	}
	fmt.Fprintf(&b, "\t.align 32\ntail:\n\tsubi r11, r11, 1\n\tcmpi r11, 0\n\tbne  cold\n")
	fmt.Fprintf(&b, "\tst   [r10+%d], r2\n\thalt\n", 8*blocks)
	return b.String(), blocks + 1
}

// staticUops counts the micro-ops the program's instructions decode to.
func staticUops(p *asm.Program) int {
	n := 0
	for _, in := range p.Insts {
		n += len(uop.Decode(in))
	}
	return n
}

// archState digests the final architectural state: every register and
// the words the program stores.
type archState [32]byte

func digestState(st *emu.State, mem *emu.Memory, outWords int) archState {
	h := sha256.New()
	var b [8]byte
	for _, r := range st.Regs {
		binary.LittleEndian.PutUint64(b[:], uint64(r))
		h.Write(b[:])
	}
	for i := 0; i < outWords; i++ {
		binary.LittleEndian.PutUint64(b[:], uint64(mem.Read64(footprintOutBase+uint64(8*i))))
		h.Write(b[:])
	}
	var d archState
	copy(d[:], h.Sum(nil))
	return d
}

type footprintProgram struct {
	wl       workloads.Workload
	outWords int
}

type footprintWorkload struct {
	seed  int64
	progs []footprintProgram
}

// footprintMaxUops is far past any program's length, so every run ends
// at halt.
const footprintMaxUops = 5_000_000

func (w *footprintWorkload) setup(seed int64) error {
	w.seed = seed
	w.progs = w.progs[:0]
	for i := 0; i < footprintPrograms; i++ {
		src, words := footprintSource(seed, i)
		p, err := asm.Assemble(src)
		if err != nil {
			return fmt.Errorf("footprint program %d: %w", i, err)
		}
		if n := staticUops(p); n < 2*uopCacheCapacity {
			return fmt.Errorf("footprint program %d: %d static uops, want at least %d", i, n, 2*uopCacheCapacity)
		}
		w.progs = append(w.progs, footprintProgram{
			wl: workloads.Workload{Name: fmt.Sprintf("footprint-%d-%d", seed, i), Source: src,
				DefaultMaxUops: footprintMaxUops},
			outWords: words,
		})
	}
	return nil
}

// footprintRun is one run's outcome: which program and config, its
// final state digest, and whether it halted.
type footprintRun struct {
	prog, cfg int
	state     archState
	halted    bool
	err       error
}

// run is a closed loop: GOMAXPROCS workers each take the next
// (program, config) pair in a fixed round-robin order and run it
// through harness.RunOne.
func (w *footprintWorkload) run(lim limit, tr *tracer) (*phase, error) {
	p := &phase{}
	var (
		mu   sync.Mutex
		next int
		runs []footprintRun
	)
	m := timeWindows(lim, windowsPerPhase)
	start := time.Now()
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if lim.done(start, next) {
			return 0, false
		}
		next++
		return next - 1, true
	}
	var wg sync.WaitGroup
	for g := 0; g < workers(); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := take()
				if !ok {
					return
				}
				pi, ci := (i/len(machines))%len(w.progs), i%len(machines)
				prog := w.progs[pi]
				var mach *pipeline.Machine
				opts := harness.Options{Parallel: 1, Observe: func(m *pipeline.Machine) { mach = m }}
				id := tr.start("harness.RunOne", 0)
				t0 := time.Now()
				res, err := harness.RunOne(machines[ci].cfg, prog.wl, opts)
				ms := time.Since(t0).Seconds() * 1e3
				tr.end(id)
				r := footprintRun{prog: pi, cfg: ci, err: err}
				if err == nil {
					r.halted = mach.Oracle.Halted()
					r.state = digestState(&mach.Oracle.St, mach.Oracle.Mem, prog.outWords)
				}
				mu.Lock()
				runs = append(runs, r)
				if err == nil {
					p.samples = append(p.samples, sample{at: m.since(), uops: res.Stats.CommittedUops, lat: ms, hasLat: true})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	m.finish(p)
	p.ops = len(runs)
	for _, r := range runs {
		if r.err != nil {
			p.failed++
		}
	}
	p.out = runs
	return p, nil
}

// check runs every program functionally on the emulator to halt and
// requires each pipeline run, baseline and SCC alike, to have halted in
// the same final state.
func (w *footprintWorkload) check(passes []*phase) (int, error) {
	want := make([]archState, len(w.progs))
	for i, pr := range w.progs {
		e := emu.New(pr.wl.Program())
		e.Run(footprintMaxUops)
		if !e.Halted() {
			return len(w.progs), fmt.Errorf("%s: emulator did not halt", pr.wl.Name)
		}
		want[i] = digestState(&e.St, e.Mem, pr.outWords)
	}
	failed := 0
	var first error
	for _, p := range passes {
		for _, r := range p.out.([]footprintRun) {
			if r.err != nil {
				continue // counted by run
			}
			if !r.halted || r.state != want[r.prog] {
				failed++
				if first == nil {
					first = fmt.Errorf("%s on %s: final state differs from the emulator (halted=%v)",
						w.progs[r.prog].wl.Name, machines[r.cfg].name, r.halted)
				}
			}
		}
	}
	return failed, first
}
