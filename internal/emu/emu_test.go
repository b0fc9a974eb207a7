package emu

import (
	"testing"
	"testing/quick"

	"sccsim/internal/asm"
	"sccsim/internal/isa"
	"sccsim/internal/uop"
)

func run(t *testing.T, src string, maxUops uint64) *Machine {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	m := New(p)
	m.Run(maxUops)
	return m
}

func TestMemoryRoundTrip(t *testing.T) {
	m := NewMemory()
	m.Write64(0x1000, -12345)
	if got := m.Read64(0x1000); got != -12345 {
		t.Errorf("Read64 = %d", got)
	}
	if got := m.Read64(0x5000); got != 0 {
		t.Errorf("unmapped read = %d, want 0", got)
	}
	// Page-straddling access.
	m.Write64(0x1ffc, 0x1122334455667788)
	if got := m.Read64(0x1ffc); got != 0x1122334455667788 {
		t.Errorf("straddling read = %#x", got)
	}
	f := func(addr uint64, v int64) bool {
		addr %= 1 << 30
		m.Write64(addr, v)
		return m.Read64(addr) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCountingLoop(t *testing.T) {
	m := run(t, `
		movi r1, 0
		movi r2, 10
	loop:
		addi r1, r1, 1
		cmp  r1, r2
		bne  loop
		halt
	`, 1_000)
	if !m.Halted() {
		t.Fatal("machine should have halted")
	}
	if got := m.St.Get(isa.R1); got != 10 {
		t.Errorf("r1 = %d, want 10", got)
	}
	// 2 movi + 10*(addi+cmp+bne) + halt = 33 uops.
	if m.UopCount != 33 {
		t.Errorf("uop count = %d, want 33", m.UopCount)
	}
}

func TestLoadsStoresAndData(t *testing.T) {
	m := run(t, `
		.data 0x100000
	tab:
		.word 11, 22, 33
		.text
	main:
		.entry main
		movi r1, tab
		ld   r2, [r1+0]
		ld   r3, [r1+8]
		ld   r4, [r1+16]
		add  r5, r2, r3
		add  r5, r5, r4
		st   [r1+24], r5
		ld   r6, [r1+24]
		halt
	`, 1_000)
	if got := m.St.Get(isa.R5); got != 66 {
		t.Errorf("sum = %d, want 66", got)
	}
	if got := m.St.Get(isa.R6); got != 66 {
		t.Errorf("store/load round trip = %d", got)
	}
}

func TestAddmLoadOp(t *testing.T) {
	m := run(t, `
		.data 0x100000
	v:	.word 40
		.text
	main:
		.entry main
		movi r1, v
		movi r2, 2
		addm r2, [r1+0]
		halt
	`, 100)
	if got := m.St.Get(isa.R2); got != 42 {
		t.Errorf("addm result = %d, want 42", got)
	}
}

func TestCallRet(t *testing.T) {
	m := run(t, `
		.entry main
	double:
		add r1, r1, r1
		ret
	main:
		movi r1, 21
		call double
		halt
	`, 100)
	if got := m.St.Get(isa.R1); got != 42 {
		t.Errorf("r1 = %d, want 42", got)
	}
}

func TestIndirectJump(t *testing.T) {
	m := run(t, `
		.entry main
	main:
		movi r1, tgt
		jr   r1
		movi r2, 1   ; skipped
	tgt:
		movi r3, 7
		halt
	`, 100)
	if m.St.Get(isa.R2) != 0 || m.St.Get(isa.R3) != 7 {
		t.Errorf("r2=%d r3=%d", m.St.Get(isa.R2), m.St.Get(isa.R3))
	}
}

func TestConditionalBranchDirections(t *testing.T) {
	m := run(t, `
		movi r1, 5
		movi r2, 9
		cmp  r1, r2
		blt  less
		movi r3, 0
		halt
	less:
		movi r3, 1
		cmp  r2, r1
		ble  wrong
		movi r4, 1
		halt
	wrong:
		movi r4, 99
		halt
	`, 100)
	if m.St.Get(isa.R3) != 1 || m.St.Get(isa.R4) != 1 {
		t.Errorf("r3=%d r4=%d", m.St.Get(isa.R3), m.St.Get(isa.R4))
	}
}

func TestRepmovCopies(t *testing.T) {
	m := run(t, `
		.data 0x100000
	src:	.word 1, 2, 3, 4
	dst:	.space 32
		.text
	main:
		.entry main
		movi r1, 4
		movi r2, src
		movi r3, dst
		repmov
		movi r4, dst
		ld   r5, [r4+0]
		ld   r6, [r4+24]
		halt
	`, 10_000)
	if m.St.Get(isa.R5) != 1 || m.St.Get(isa.R6) != 4 {
		t.Errorf("copied words: r5=%d r6=%d", m.St.Get(isa.R5), m.St.Get(isa.R6))
	}
	if m.St.Get(isa.R1) != 0 {
		t.Errorf("repmov count register = %d, want 0", m.St.Get(isa.R1))
	}
}

func TestFloatingPoint(t *testing.T) {
	m := run(t, `
		movi r1, 6
		movi r2, 7
		cvtif f1, r1
		cvtif f2, r2
		fmul f3, f1, f2
		cvtfi r3, f3
		fdiv f4, f3, f1
		cvtfi r4, f4
		halt
	`, 100)
	if m.St.Get(isa.R3) != 42 {
		t.Errorf("6.0*7.0 = %d, want 42", m.St.Get(isa.R3))
	}
	if m.St.Get(isa.R4) != 7 {
		t.Errorf("42.0/6.0 = %d, want 7", m.St.Get(isa.R4))
	}
	if got := m.St.GetF(isa.F3); got != 42.0 {
		t.Errorf("f3 = %v", got)
	}
}

func TestStepUopResults(t *testing.T) {
	p := asm.MustAssemble(`
		movi r1, 3
		addi r1, r1, 4
		cmpi r1, 7
		beq  t
		halt
	t:	halt
	`)
	m := New(p)
	r1, _ := m.StepUop()
	if r1.U.Kind != uop.KMovImm || r1.Value != 3 || !r1.EndsMacro {
		t.Errorf("movi result = %+v", r1)
	}
	r2, _ := m.StepUop()
	if r2.Value != 7 {
		t.Errorf("addi value = %d", r2.Value)
	}
	r3, _ := m.StepUop()
	if r3.Value != isa.Flags(7, 7) {
		t.Errorf("cmp flags = %d", r3.Value)
	}
	r4, _ := m.StepUop()
	if !r4.Taken || r4.Target != p.Labels["t"] {
		t.Errorf("beq result = %+v", r4)
	}
	r5, _ := m.StepUop()
	if r5.U.Kind != uop.KHalt || !m.Halted() {
		t.Error("expected halt")
	}
	if _, ok := m.StepUop(); ok {
		t.Error("step after halt must fail")
	}
}

func TestRunStopsAtMax(t *testing.T) {
	p := asm.MustAssemble("spin: jmp spin")
	m := New(p)
	n := m.Run(100)
	if n != 100 || m.Halted() {
		t.Errorf("ran %d uops, halted=%v", n, m.Halted())
	}
}

func TestHaltOnUnmappedPC(t *testing.T) {
	p := asm.MustAssemble("movi r1, 1") // falls off the end
	m := New(p)
	m.Run(100)
	if !m.Halted() {
		t.Error("falling off code end should halt")
	}
	if m.St.Get(isa.R1) != 1 {
		t.Error("executed instruction lost")
	}
}

func TestShiftOps(t *testing.T) {
	m := run(t, `
		movi r1, 1
		shli r2, r1, 40
		shri r3, r2, 8
		movi r4, -1
		shri r5, r4, 56
		halt
	`, 100)
	if m.St.Get(isa.R2) != 1<<40 || m.St.Get(isa.R3) != 1<<32 {
		t.Errorf("shifts: r2=%d r3=%d", m.St.Get(isa.R2), m.St.Get(isa.R3))
	}
	if m.St.Get(isa.R5) != 255 {
		t.Errorf("logical shr of -1 by 56 = %d, want 255", m.St.Get(isa.R5))
	}
}

func TestDivByZeroYieldsZero(t *testing.T) {
	m := run(t, `
		movi r1, 5
		movi r2, 0
		div  r3, r1, r2
		halt
	`, 100)
	if m.St.Get(isa.R3) != 0 {
		t.Errorf("div by zero = %d", m.St.Get(isa.R3))
	}
}

func TestGoldenDeterminism(t *testing.T) {
	src := `
		.data 0x100000
	tab:	.word 5, 9, 2, 7, 1, 8, 3, 6
		.text
	main:
		.entry main
		movi r1, tab
		movi r2, 0      ; sum
		movi r3, 0      ; i
		movi r4, 8
	loop:
		shli r5, r3, 3
		add  r6, r1, r5
		ld   r7, [r6+0]
		add  r2, r2, r7
		addi r3, r3, 1
		cmp  r3, r4
		bne  loop
		halt
	`
	a := run(t, src, 100_000)
	b := run(t, src, 100_000)
	if a.St != b.St {
		t.Error("two runs of the same program diverged")
	}
	if a.St.Get(isa.R2) != 41 {
		t.Errorf("checksum = %d, want 41", a.St.Get(isa.R2))
	}
}

// TestSequentialDecodeMatchesAddressLookup checks the emulator's
// sequential fast path (taking the next instruction index when it sits at
// the fall-through PC) against a twin machine that looks every macro-op up
// by address. The program crosses an .org gap after a jump, loops back with
// a taken branch, runs a repmov self-loop and falls off the end of its
// code into a second gap; the twins also roll back from mid-macro
// positions together. Every executed micro-op must equal a fresh decode of
// the instruction at its PC, and the twins must agree step by step.
func TestSequentialDecodeMatchesAddressLookup(t *testing.T) {
	p, err := asm.Assemble(`
		.data 0x100000
	src:	.word 1, 2, 3, 4
	dst:	.space 32
		.text
	main:
		.entry main
		movi r9, 0
	again:
		movi r1, 4
		movi r2, src
		movi r3, dst
		repmov
		movi r4, src
		addm r5, [r4+8]
		jmp  far
		.org 0x2000
	far:
		addi r9, r9, 1
		cmpi r9, 3
		blt  again
		movi r6, 7
		.org 0x3000
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	fast, slow := New(p), New(p)
	step := func(i int) {
		t.Helper()
		slow.nextIdx = -1 // always the address map
		rf, okf := fast.StepUop()
		rs, oks := slow.StepUop()
		if okf != oks {
			t.Fatalf("step %d: fast ok=%v, address-lookup ok=%v", i, okf, oks)
		}
		if !okf {
			return
		}
		if *rf.U != *rs.U || rf.Value != rs.Value || rf.Taken != rs.Taken ||
			rf.Target != rs.Target || rf.MemAddr != rs.MemAddr || rf.EndsMacro != rs.EndsMacro {
			t.Fatalf("step %d: fast %+v\naddress lookup %+v", i, rf, rs)
		}
		want := uop.Decode(p.Insts[p.ByAddr[rf.U.MacroPC]])[rf.U.SeqNum]
		if *rf.U != want {
			t.Fatalf("step %d: executed %v, fresh decode %v", i, rf.U, &want)
		}
		if fast.St != slow.St || fast.Seq() != slow.Seq() {
			t.Fatalf("step %d: state diverged", i)
		}
	}
	rollbacks := 0
	for i := 0; i < 500 && !fast.Halted(); i++ {
		if fast.Seq() != 0 && rollbacks < 5 && i%7 == 0 {
			// Mid-macro dry run and squash, on both twins.
			fast.BeginUndo()
			slow.BeginUndo()
			for k := 0; k < 3; k++ {
				step(i)
			}
			fast.Rollback()
			slow.Rollback()
			rollbacks++
		}
		step(i)
	}
	if !fast.Halted() || !slow.Halted() {
		t.Fatal("the fall-through into the .org gap should halt both machines")
	}
	if rollbacks == 0 {
		t.Error("no mid-macro rollback exercised")
	}
	if fast.St.Get(isa.R9) != 3 || fast.St.Get(isa.R6) != 7 {
		t.Errorf("r9=%d r6=%d, want the loop to run 3 times and fall through",
			fast.St.Get(isa.R9), fast.St.Get(isa.R6))
	}
	if fast.UopCount != slow.UopCount || fast.MacroCount != slow.MacroCount {
		t.Errorf("counts diverged: %d/%d uops, %d/%d macros",
			fast.UopCount, slow.UopCount, fast.MacroCount, slow.MacroCount)
	}
}
