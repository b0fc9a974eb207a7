package uop

import (
	"testing"

	"sccsim/internal/isa"
)

func decode1(t *testing.T, in isa.Inst) UOp {
	t.Helper()
	us := Decode(in)
	if len(us) != 1 {
		t.Fatalf("Decode(%v) produced %d uops, want 1", in, len(us))
	}
	return us[0]
}

func TestDecodeSimpleOps(t *testing.T) {
	u := decode1(t, isa.Inst{Op: isa.OpAdd, Rd: isa.R1, Rs1: isa.R2, Rs2: isa.R3, Addr: 0x1000, Len: 3})
	if u.Kind != KAlu || u.Fn != isa.FnAdd || u.Dst != isa.R1 || u.Src1 != isa.R2 || u.Src2 != isa.R3 {
		t.Errorf("add uop = %v", &u)
	}
	if u.MacroPC != 0x1000 || u.MacroLen != 3 || u.NextPC() != 0x1003 {
		t.Errorf("provenance wrong: %+v", u)
	}

	u = decode1(t, isa.Inst{Op: isa.OpAddi, Rd: isa.R1, Rs1: isa.R2, Imm: 9})
	if !u.Src2Imm || u.Imm2 != 9 {
		t.Errorf("addi should carry imm source: %v", &u)
	}

	u = decode1(t, isa.Inst{Op: isa.OpMovi, Rd: isa.R4, Imm: -7})
	if u.Kind != KMovImm || u.Imm != -7 {
		t.Errorf("movi uop = %v", &u)
	}

	u = decode1(t, isa.Inst{Op: isa.OpCmp, Rs1: isa.R1, Rs2: isa.R2})
	if u.Dst != isa.RegCC || !u.WritesCC() {
		t.Errorf("cmp must write CC: %v", &u)
	}

	u = decode1(t, isa.Inst{Op: isa.OpLd, Rd: isa.R1, Rs1: isa.R2, Imm: 16})
	if u.Kind != KLoad || u.Imm != 16 {
		t.Errorf("ld uop = %v", &u)
	}

	u = decode1(t, isa.Inst{Op: isa.OpSt, Rs1: isa.R2, Rs2: isa.R3, Imm: 8})
	if u.Kind != KStore || u.Src2 != isa.R3 || u.HasDst() {
		t.Errorf("st uop = %v", &u)
	}
}

func TestDecodeBranches(t *testing.T) {
	u := decode1(t, isa.Inst{Op: isa.OpBlt, Target: 0x1040, Addr: 0x1000, Len: 3})
	if u.Kind != KBranch || u.Cond != isa.CondLT || u.Src1 != isa.RegCC || u.Target != 0x1040 {
		t.Errorf("blt uop = %v", &u)
	}
	if !u.IsBranchKind() {
		t.Error("branch kind predicate failed")
	}
	u = decode1(t, isa.Inst{Op: isa.OpJmp, Target: 0x2000})
	if u.Kind != KJump || u.Cond != isa.CondAlways {
		t.Errorf("jmp uop = %v", &u)
	}
	u = decode1(t, isa.Inst{Op: isa.OpRet})
	if u.Kind != KJumpReg || u.Src1 != isa.LR {
		t.Errorf("ret uop = %v", &u)
	}
}

func TestDecodeAddmCracksIntoFusedPair(t *testing.T) {
	us := Decode(isa.Inst{Op: isa.OpAddm, Rd: isa.R1, Rs1: isa.R2, Imm: 8, Addr: 0x1000, Len: 5})
	if len(us) != 2 {
		t.Fatalf("addm cracked into %d uops, want 2", len(us))
	}
	ld, add := us[0], us[1]
	if ld.Kind != KLoad || ld.Dst != isa.RegTmp {
		t.Errorf("load half = %v", &ld)
	}
	if add.Kind != KAlu || add.Src1 != isa.R1 || add.Src2 != isa.RegTmp || add.Dst != isa.R1 {
		t.Errorf("add half = %v", &add)
	}
	if !add.FusedWithPrev || ld.FusedWithPrev {
		t.Error("addm pair must be micro-fused")
	}
	if SlotCount(us) != 1 {
		t.Errorf("fused pair occupies %d slots, want 1", SlotCount(us))
	}
	if ld.NumInMacro != 2 || add.SeqNum != 1 {
		t.Errorf("sequence metadata wrong: %+v %+v", ld, add)
	}
}

func TestDecodeCallCracks(t *testing.T) {
	us := Decode(isa.Inst{Op: isa.OpCall, Target: 0x3000, Addr: 0x1000, Len: 3})
	if len(us) != 2 {
		t.Fatalf("call cracked into %d uops", len(us))
	}
	if us[0].Kind != KMovImm || us[0].Dst != isa.LR || us[0].Imm != 0x1003 {
		t.Errorf("link write = %v", &us[0])
	}
	if us[1].Kind != KJump || us[1].Target != 0x3000 {
		t.Errorf("jump = %v", &us[1])
	}
	if SlotCount(us) != 2 {
		t.Error("call halves are not fused")
	}
}

func TestDecodeRepmovSelfLoops(t *testing.T) {
	us := Decode(isa.Inst{Op: isa.OpRepmov, Addr: 0x1000, Len: 3})
	if len(us) != 7 {
		t.Fatalf("repmov cracked into %d uops, want 7", len(us))
	}
	for i := range us {
		if !us[i].SelfLoop {
			t.Errorf("uop %d missing SelfLoop", i)
		}
	}
	br := us[len(us)-1]
	if br.Kind != KBranch || br.Target != 0x1000 || br.Target != br.MacroPC {
		t.Errorf("self-loop branch must target its own macro: %v", &br)
	}
}

func TestDecodeFP(t *testing.T) {
	u := decode1(t, isa.Inst{Op: isa.OpFmul, Rd: isa.F1, Rs1: isa.F2, Rs2: isa.F3})
	if u.Kind != KFp || u.Fn != isa.FnMul {
		t.Errorf("fmul uop = %v", &u)
	}
	u = decode1(t, isa.Inst{Op: isa.OpCvtFI, Rd: isa.R1, Rs1: isa.F1})
	if u.Kind != KFp || u.Fn != isa.FnCvtFI {
		t.Errorf("cvtfi uop = %v", &u)
	}
	u = decode1(t, isa.Inst{Op: isa.OpFld, Rd: isa.F2, Rs1: isa.R1, Imm: 8})
	if u.Kind != KLoad || u.Dst != isa.F2 {
		t.Errorf("fld uop = %v", &u)
	}
}

func TestMacroFuseCmpBranch(t *testing.T) {
	cmp := Decode(isa.Inst{Op: isa.OpCmp, Rs1: isa.R1, Rs2: isa.R2, Addr: 0x1000, Len: 3})
	br := Decode(isa.Inst{Op: isa.OpBeq, Target: 0x1040, Addr: 0x1003, Len: 3})
	stream := append(append([]UOp{}, cmp...), br...)
	MacroFuse(stream)
	if !stream[1].FusedWithPrev {
		t.Error("cmp+beq should macro-fuse")
	}
	if SlotCount(stream) != 1 {
		t.Errorf("fused cmp+beq slots = %d, want 1", SlotCount(stream))
	}

	// A non-CC-writer before a branch must not fuse.
	add := Decode(isa.Inst{Op: isa.OpAdd, Rd: isa.R1, Rs1: isa.R1, Rs2: isa.R2, Addr: 0x1000, Len: 3})
	stream2 := append(append([]UOp{}, add...), Decode(isa.Inst{Op: isa.OpBeq, Target: 0x1040, Addr: 0x1003, Len: 3})...)
	MacroFuse(stream2)
	if stream2[1].FusedWithPrev {
		t.Error("add+beq must not macro-fuse")
	}
}

func TestSrcRegsHonoursImmForms(t *testing.T) {
	u := UOp{Kind: KAlu, Fn: isa.FnAdd, Dst: isa.R1, Src1: isa.R2, Src2: isa.R3}
	regs := u.SrcRegs(nil)
	if len(regs) != 2 {
		t.Fatalf("SrcRegs = %v", regs)
	}
	u.Src2Imm = true
	regs = u.SrcRegs(nil)
	if len(regs) != 1 || regs[0] != isa.R2 {
		t.Errorf("after constant propagation SrcRegs = %v", regs)
	}
	u.Src1Imm = true
	if regs = u.SrcRegs(nil); len(regs) != 0 {
		t.Errorf("fully propagated uop reads %v", regs)
	}
}

func TestDecoderMemoizes(t *testing.T) {
	insts := []isa.Inst{
		{Op: isa.OpAdd, Rd: isa.R1, Rs1: isa.R2, Rs2: isa.R3, Addr: 0x1000, Len: 3},
		{Op: isa.OpAdd, Rd: isa.R4, Rs1: isa.R5, Rs2: isa.R6, Addr: 0x1003, Len: 3},
	}
	d := NewDecoder(insts, map[uint64]int{0x1000: 0, 0x1003: 1})
	a, ok := d.At(0x1000)
	b, ok2 := d.At(0x1000)
	if !ok || !ok2 {
		t.Fatal("decoded address missed")
	}
	if &a[0] != &b[0] || &a[0] != &d.Uops(0)[0] {
		t.Error("cached slices should be shared between At and Uops")
	}
	if _, ok := d.At(0x9999); ok {
		t.Error("unknown address should miss")
	}
	// Index takes a correct hint without the map, and falls back to the
	// map for a wrong or out-of-range one.
	for _, hint := range []int{1, 0, -1, 2} {
		if i, ok := d.Index(0x1003, hint); !ok || i != 1 {
			t.Errorf("Index(0x1003, hint %d) = %d, %v", hint, i, ok)
		}
	}
	if _, ok := d.Index(0x1001, 1); ok {
		t.Error("Index of a non-instruction address should miss")
	}
}

func TestCloneIsDeep(t *testing.T) {
	us := Decode(isa.Inst{Op: isa.OpAdd, Rd: isa.R1, Rs1: isa.R2, Rs2: isa.R3, Addr: 0x1000, Len: 3})
	c := Clone(us)
	c[0].Src2Imm = true
	c[0].Imm2 = 99
	if us[0].Src2Imm {
		t.Error("Clone must not share backing storage")
	}
}

func TestUOpString(t *testing.T) {
	u := UOp{Kind: KAlu, Fn: isa.FnAdd, Dst: isa.R1, Src1: isa.R2, Src2: isa.RegNone, Src2Imm: true, Imm2: 5}
	if got := u.String(); got != "alu.add r1, r2, #5" {
		t.Errorf("String() = %q", got)
	}
	u2 := UOp{Kind: KLoad, Dst: isa.R1, Src1: isa.R2, Imm: 8, PredSource: true}
	if got := u2.String(); got != "load r1, [r2+8] <pred-src>" {
		t.Errorf("String() = %q", got)
	}
}

func TestAllMacroOpsDecode(t *testing.T) {
	// Every opcode must decode to a non-invalid uop sequence.
	for o := isa.OpAdd; o <= isa.OpHalt; o++ {
		in := isa.Inst{Op: o, Rd: isa.R1, Rs1: isa.R2, Rs2: isa.R3, Addr: 0x1000, Len: o.EncLen()}
		us := Decode(in)
		if len(us) == 0 {
			t.Errorf("%v decoded to nothing", o)
			continue
		}
		for i := range us {
			if us[i].Kind == KInvalid {
				t.Errorf("%v decoded to invalid uop", o)
			}
		}
	}
}
