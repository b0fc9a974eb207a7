package pipeline

import (
	"math/rand"
	"testing"
)

func TestRingFIFOAcrossGrowth(t *testing.T) {
	var r ring[int]
	next, expect := 0, 0
	rng := rand.New(rand.NewSource(11))
	for step := 0; step < 10000; step++ {
		if rng.Intn(3) > 0 || r.empty() {
			r.push(&next)
			next++
		} else {
			if got := *r.front(); got != expect {
				t.Fatalf("front = %d, want %d", got, expect)
			}
			r.advance()
			expect++
		}
		if r.len() != next-expect {
			t.Fatalf("len = %d, want %d", r.len(), next-expect)
		}
	}
	for !r.empty() {
		if got := *r.front(); got != expect {
			t.Fatalf("drain front = %d, want %d", got, expect)
		}
		r.advance()
		expect++
	}
	if expect != next {
		t.Fatalf("drained %d elements, pushed %d", expect, next)
	}
}

func TestRingAdvanceReleasesReferences(t *testing.T) {
	var r ring[*int]
	v := new(int)
	r.push(&v)
	r.advance()
	if r.buf[0] != nil {
		t.Error("advance left a live pointer in the freed slot")
	}
}

func TestRingAt(t *testing.T) {
	var r ring[int]
	for i := 0; i < 100; i++ {
		r.push(&i)
	}
	for i := 0; i < 40; i++ {
		r.advance()
	}
	for i := 100; i < 130; i++ {
		r.push(&i) // wraps around the head
	}
	for i := 0; i < r.len(); i++ {
		if got := *r.at(i); got != 40+i {
			t.Fatalf("at(%d) = %d, want %d", i, got, 40+i)
		}
	}
}

func TestRingReset(t *testing.T) {
	var r ring[*int]
	for i := 0; i < 10; i++ {
		v := new(int)
		r.push(&v)
	}
	r.advance()
	r.reset()
	if !r.empty() || r.len() != 0 {
		t.Fatal("reset did not empty the ring")
	}
	for i := range r.buf {
		if r.buf[i] != nil {
			t.Fatal("reset left live pointers in the buffer")
		}
	}
	v := new(int)
	r.push(&v)
	if r.len() != 1 {
		t.Error("ring unusable after reset")
	}
}

func TestU64TableBasics(t *testing.T) {
	tb := newU64Table[int](2) // tiny: forces growth
	const n = 1000
	for i := uint64(0); i < n; i++ {
		tb.put(i*0x10001, int(i))
	}
	if tb.len() != n {
		t.Fatalf("len = %d, want %d", tb.len(), n)
	}
	for i := uint64(0); i < n; i++ {
		v, ok := tb.get(i * 0x10001)
		if !ok || v != int(i) {
			t.Fatalf("get(%d) = %d,%v", i, v, ok)
		}
	}
	if _, ok := tb.get(12345); ok {
		t.Error("phantom key present")
	}
	// Zero key is a legal key.
	tb.put(0, 77)
	if v, ok := tb.get(0); !ok || v != 77 {
		t.Errorf("zero key: %d,%v", v, ok)
	}
}

func TestU64TableClearAndRef(t *testing.T) {
	tb := newU64Table[int](4)
	tb.put(9, 1)
	tb.clear()
	if tb.len() != 0 {
		t.Fatal("clear left entries")
	}
	if _, ok := tb.get(9); ok {
		t.Fatal("entry survived clear")
	}
	// ref inserts a zero value and returns a mutable pointer.
	p := tb.ref(9)
	if *p != 0 {
		t.Fatalf("fresh ref = %d, want 0 (stale value leaked across clear)", *p)
	}
	*p = 5
	if v, _ := tb.get(9); v != 5 {
		t.Error("ref mutation not visible")
	}
}

func TestU64TableGenerationWrap(t *testing.T) {
	tb := newU64Table[int](2)
	tb.put(42, 1)
	tb.gen = ^uint32(0) // force the wrap path on the next clear
	tb.clear()
	if tb.gen == 0 {
		t.Fatal("generation stuck at 0 after wrap")
	}
	if _, ok := tb.get(42); ok {
		t.Error("stale entry visible after generation wrap")
	}
	tb.put(42, 2)
	if v, _ := tb.get(42); v != 2 {
		t.Error("table unusable after generation wrap")
	}
}

func TestU64TableMatchesMap(t *testing.T) {
	// Property: under random put/get/clear traffic the table behaves
	// exactly like map[uint64]uint64.
	rng := rand.New(rand.NewSource(23))
	tb := newU64Table[uint64](3)
	ref := map[uint64]uint64{}
	for i := 0; i < 20000; i++ {
		k := uint64(rng.Intn(500))
		switch rng.Intn(10) {
		case 0:
			if rng.Intn(50) == 0 {
				tb.clear()
				ref = map[uint64]uint64{}
			}
		case 1, 2, 3, 4:
			v := rng.Uint64()
			tb.put(k, v)
			ref[k] = v
		default:
			got, ok := tb.get(k)
			want, wok := ref[k]
			if ok != wok || (ok && got != want) {
				t.Fatalf("get(%d) = %d,%v want %d,%v", k, got, ok, want, wok)
			}
		}
		if tb.len() != len(ref) {
			t.Fatalf("len = %d, want %d", tb.len(), len(ref))
		}
	}
}
