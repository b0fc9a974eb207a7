package uopcache

import (
	"math/rand"
	"testing"
)

// eagerHotness is the reference model for lazy hotness decay: the
// original eager sweep, which walked every resident line once per decay
// period and decremented its counter. It shadows a Partition, mirroring
// each access into its own per-line counters.
type eagerHotness struct {
	p   *Partition
	acc int
	hot map[*Line]int
}

// tick decrements every resident line's counter once per decay period.
func (e *eagerHotness) tick() {
	if e.p.DecayPeriod <= 0 {
		return
	}
	e.acc++
	if e.acc < e.p.DecayPeriod {
		return
	}
	e.acc = 0
	for _, set := range e.p.sets {
		for _, l := range set {
			if e.hot[l] > 0 {
				e.hot[l]--
			}
		}
	}
}

// viewHot reads a line's settled hotness without settling the line
// itself, so checking every line on every step leaves the lazy state as
// the simulation would have it.
func viewHot(p *Partition, l *Line) int {
	c := *l
	p.settle(&c)
	return c.hot
}

// TestLazyDecayMatchesEagerSweep drives partitions with a random
// interleaving of Insert (with evictions and re-insertion of evicted
// lines), Lookup, LookupAll, Remove, Lines and runs of Tick, and checks
// after every step that each line's hotness — resident or not — equals
// the eager reference model's.
func TestLazyDecayMatchesEagerSweep(t *testing.T) {
	for _, period := range []int{0, 2, 3, 28} {
		rng := rand.New(rand.NewSource(int64(1000 + period)))
		p := NewPartition(2, 4, period)
		ref := &eagerHotness{p: p, hot: map[*Line]int{}}
		var all []*Line
		pcOf := func() uint64 { return uint64(0x1000 + rng.Intn(8)*32) }

		for step := 0; step < 6000; step++ {
			op := "?"
			switch rng.Intn(11) {
			case 0:
				op = "insert"
				var l *Line
				var out []*Line
				for _, x := range all {
					if !x.resident {
						out = append(out, x)
					}
				}
				if len(out) > 0 && rng.Intn(2) == 0 {
					l = out[rng.Intn(len(out))] // evicted earlier: comes back cold-frozen
				} else {
					pc := pcOf()
					var meta *CompactMeta
					if rng.Intn(2) == 0 {
						meta = &CompactMeta{DataInv: []DataInvariant{{Key: uint64(rng.Intn(4))}}}
					}
					l = NewLine(pc, mkUops(1+rng.Intn(12), pc), meta)
					all = append(all, l)
				}
				p.Insert(l)
			case 1, 2:
				op = "lookup"
				if l := p.Lookup(pcOf()); l != nil {
					ref.hot[l]++
				}
			case 3:
				op = "lookupall"
				for _, l := range p.LookupAll(pcOf(), nil) {
					ref.hot[l]++
				}
			case 4:
				op = "remove"
				var in []*Line
				for _, x := range all {
					if x.resident {
						in = append(in, x)
					}
				}
				if len(in) > 0 {
					p.Remove(in[rng.Intn(len(in))])
				}
			case 5:
				op = "lines"
				p.Lines()
			default:
				op = "tick"
				for n := rng.Intn(2 * (period + 1)); n >= 0; n-- {
					p.Tick()
					ref.tick()
				}
			}
			for _, l := range all {
				if got, want := viewHot(p, l), ref.hot[l]; got != want {
					t.Fatalf("period %d step %d (%s): line@%#x resident=%v hot %d, eager model %d",
						period, step, op, l.EntryPC, l.resident, got, want)
				}
			}
		}
		for _, l := range p.Lines() {
			if l.hotEpoch != p.epoch || l.hot != ref.hot[l] {
				t.Fatalf("period %d: Lines() left line@%#x unsettled", period, l.EntryPC)
			}
		}
	}
}
