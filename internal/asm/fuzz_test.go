package asm_test

import (
	"testing"

	"sccsim/internal/asm"
	"sccsim/internal/workloads"
)

// FuzzAssemble feeds arbitrary source to the assembler, which reads
// user files through sccsim -program: it must never panic, and every
// error it returns must be an *asm.Error naming a line.
func FuzzAssemble(f *testing.F) {
	for _, w := range workloads.All() {
		f.Add(w.Source)
	}
	f.Fuzz(func(t *testing.T, src string) {
		_, err := asm.Assemble(src)
		if _, ok := err.(*asm.Error); err != nil && !ok {
			t.Fatalf("Assemble returned %T (%v), want *asm.Error", err, err)
		}
	})
}
