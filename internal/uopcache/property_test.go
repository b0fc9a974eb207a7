package uopcache

import (
	"math/rand"
	"testing"
)

// TestPropertyPartitionInvariants drives a partition with random
// insert/lookup/lock/remove traffic and checks the structural invariants
// after every operation: per-set way usage never exceeds associativity,
// locked lines are never evicted, and lookups only return matching lines.
func TestPropertyPartitionInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(555))
	for trial := 0; trial < 20; trial++ {
		sets := 1 << (1 + rng.Intn(4))
		ways := 2 + rng.Intn(7)
		p := NewPartition(sets, ways, 0)
		var locked []*Line

		check := func(op string) {
			t.Helper()
			for si, set := range p.sets {
				used := 0
				for _, l := range set {
					used += l.Ways
					if int((l.EntryPC>>5)%uint64(sets)) != si {
						t.Fatalf("%s: line@%#x in wrong set %d", op, l.EntryPC, si)
					}
				}
				if used > ways {
					t.Fatalf("%s: set %d uses %d ways > %d", op, si, used, ways)
				}
			}
			for _, l := range locked {
				if p.Peek(l.EntryPC) != l {
					t.Fatalf("%s: locked line@%#x was evicted", op, l.EntryPC)
				}
			}
		}

		for step := 0; step < 500; step++ {
			pc := uint64(0x1000 + rng.Intn(64)*32)
			switch rng.Intn(5) {
			case 0, 1:
				n := 1 + rng.Intn(18)
				p.Insert(NewLine(pc, mkUops(n, pc), nil))
				check("insert")
			case 2:
				if l := p.Lookup(pc); l != nil && l.EntryPC != pc {
					t.Fatal("lookup returned mismatched line")
				}
				check("lookup")
			case 3:
				if l := p.Peek(pc); l != nil && !l.Locked && p.Lock(l) {
					locked = append(locked, l)
				}
				check("lock")
			case 4:
				if len(locked) > 0 {
					l := locked[len(locked)-1]
					locked = locked[:len(locked)-1]
					p.Unlock(l)
				}
				check("unlock")
			}
		}
	}
}

// TestPropertyHotnessNeverNegative: random access/decay interleavings keep
// hotness counters non-negative.
func TestPropertyHotnessNeverNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	p := NewPartition(4, 8, 2)
	for i := 0; i < 16; i++ {
		p.Insert(NewLine(uint64(0x1000+i*32), mkUops(3, uint64(0x1000+i*32)), nil))
	}
	for step := 0; step < 2000; step++ {
		if rng.Intn(3) == 0 {
			p.Lookup(uint64(0x1000 + rng.Intn(16)*32))
		} else {
			p.Tick()
		}
		for _, l := range p.Lines() {
			if p.Hot(l) < 0 {
				t.Fatal("negative hotness")
			}
		}
	}
}

// TestPropertySelectNeverReturnsGatedLine: no selection ever returns an
// optimized line that fails the confidence/hotness/shrinkage/squash gates.
func TestPropertySelectNeverReturnsGatedLine(t *testing.T) {
	rng := rand.New(rand.NewSource(888))
	cfg := DefaultConfig()
	u := New(cfg)
	// Populate with random lines and metadata.
	for i := 0; i < 200; i++ {
		pc := uint64(0x1000 + rng.Intn(32)*32)
		u.Unopt.Insert(NewLine(pc, mkUops(1+rng.Intn(12), pc), nil))
		meta := &CompactMeta{
			DataInv:   []DataInvariant{{Key: pc, Value: int64(rng.Intn(10)), Conf: rng.Intn(16)}},
			OrigSlots: 1 + rng.Intn(18),
			Squashes:  uint64(rng.Intn(5)),
			Streams:   uint64(rng.Intn(50)),
		}
		l := NewLine(pc, mkUops(1+rng.Intn(meta.OrigSlots), pc), meta)
		l.hot = rng.Intn(6)
		u.Opt.Insert(l)
	}
	var scratch []*Line
	for step := 0; step < 2000; step++ {
		pc := uint64(0x1000 + rng.Intn(32)*32)
		var sel Selection
		sel, scratch = u.Select(pc, scratch, nil)
		if !sel.FromOpt {
			continue
		}
		m := sel.Line.Meta
		if m.MinConf() < cfg.StreamConfThreshold {
			t.Fatal("selected line below confidence threshold")
		}
		if m.Shrinkage(sel.Line.Slots) < cfg.MinShrinkage {
			t.Fatal("selected line below shrinkage threshold")
		}
		if cfg.SquashGate > 0 && m.Squashes >= 2 && m.Squashes*uint64(cfg.SquashGate) > m.Streams {
			t.Fatal("selected a squash-gated line")
		}
	}
}
