package main

import (
	"testing"

	"sccsim/internal/asm"
)

func TestFootprintSourceIsDeterministic(t *testing.T) {
	a, wa := footprintSource(7, 3)
	b, wb := footprintSource(7, 3)
	if a != b || wa != wb {
		t.Fatal("same seed and index gave different programs")
	}
	if c, _ := footprintSource(8, 3); c == a {
		t.Fatal("different seeds gave the same program")
	}
	if d, _ := footprintSource(7, 4); d == a {
		t.Fatal("different indexes gave the same program")
	}
}

func TestFootprintExceedsMicroOpCache(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for i := 0; i < footprintPrograms; i++ {
			src, _ := footprintSource(seed, i)
			p, err := asm.Assemble(src)
			if err != nil {
				t.Fatalf("seed %d program %d: %v", seed, i, err)
			}
			if n := staticUops(p); n < 2*uopCacheCapacity {
				t.Errorf("seed %d program %d: %d static uops, want at least twice the %d-uop cache",
					seed, i, n, uopCacheCapacity)
			}
		}
	}
}
