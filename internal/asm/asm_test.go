package asm

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"hashcore/internal/isa"
	"hashcore/internal/prog"
	"hashcore/internal/rng"
)

const sampleSource = `
; a sample widget exercising every operand shape
.mem 4096 0xbeef
.block 0
	movi r1, 42
	movi r2, -7
	add r3, r1, r2
	addi r3, r3, 100
	mov r4, r3
	mul r5, r3, r1
	fcvt f1, r5
	fadd f2, f1, f1
	fsqrt f3, f2
	ftoi r6, f3
	load r7, [r6+16]
	fload f4, [r6-8]
	store [r6+24], r7
	fstore [r6], f4
	vbcast v1, r7
	vadd v2, v1, v1
	vred r8, v2
	beq r1, r2, @2
.block 1
	xor r9, r8, r7
	jmp @2
.block 2
	halt
`

func TestAssembleSample(t *testing.T) {
	p, err := Assemble(sampleSource)
	if err != nil {
		t.Fatal(err)
	}
	if p.MemSize != 4096 || p.MemSeed != 0xbeef {
		t.Errorf("memory decl = %d/%#x, want 4096/0xbeef", p.MemSize, p.MemSeed)
	}
	if len(p.Blocks) != 3 {
		t.Fatalf("got %d blocks, want 3", len(p.Blocks))
	}
	first := p.Instrs(0)[0]
	if first.Op != isa.OpMovI || first.Dst != 1 || first.Imm != 42 {
		t.Errorf("first instr = %+v", first)
	}
	neg := p.Instrs(0)[1]
	if neg.Imm != -7 {
		t.Errorf("negative immediate = %d, want -7", neg.Imm)
	}
	load := p.Instrs(0)[10]
	if load.Op != isa.OpLoad || load.A != 6 || load.Imm != 16 {
		t.Errorf("load = %+v", load)
	}
	fload := p.Instrs(0)[11]
	if fload.Imm != -8 {
		t.Errorf("fload displacement = %d, want -8", fload.Imm)
	}
	store := p.Instrs(0)[12]
	if store.A != 6 || store.B != 7 || store.Imm != 24 {
		t.Errorf("store = %+v", store)
	}
	branch := p.Instrs(0)[len(p.Instrs(0))-1]
	if !branch.Op.IsCondBranch() || branch.Target != 2 {
		t.Errorf("branch = %+v", branch)
	}
}

func TestRoundTripSample(t *testing.T) {
	p, err := Assemble(sampleSource)
	if err != nil {
		t.Fatal(err)
	}
	text := prog.Disassemble(p)
	q, err := Assemble(text)
	if err != nil {
		t.Fatalf("re-assembling disassembly: %v\n%s", err, text)
	}
	if err := programsEqual(p, q); err != nil {
		t.Fatalf("round trip mismatch: %v", err)
	}
}

func programsEqual(p, q *prog.Program) error {
	if p.MemSize != q.MemSize || p.MemSeed != q.MemSeed {
		return errors.New("memory declarations differ")
	}
	if !slices.Equal(p.Blocks, q.Blocks) {
		return errors.New("block tables differ")
	}
	if !slices.Equal(p.Code, q.Code) {
		return errors.New("instructions differ")
	}
	return nil
}

// TestRoundTripRandomPrograms property-tests the assembler against random
// structurally valid programs covering every opcode.
func TestRoundTripRandomPrograms(t *testing.T) {
	allOps := []isa.Opcode{
		isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpShl,
		isa.OpShr, isa.OpRor, isa.OpCmpLT, isa.OpCmpEQ, isa.OpMov,
		isa.OpMovI, isa.OpAddI, isa.OpMul, isa.OpMulH, isa.OpFAdd,
		isa.OpFSub, isa.OpFMul, isa.OpFDiv, isa.OpFSqrt, isa.OpFMov,
		isa.OpFCvt, isa.OpFToI, isa.OpLoad, isa.OpFLoad, isa.OpStore,
		isa.OpFStore, isa.OpVAdd, isa.OpVXor, isa.OpVMul, isa.OpVBcast,
		isa.OpVRed,
	}
	f := func(seed uint64) bool {
		x := rng.NewXoshiro256(seed)
		b := prog.NewBuilder(1<<uint(12+x.Intn(6)), x.Next())
		nBlocks := 2 + x.Intn(4)
		for bi := 0; bi < nBlocks; bi++ {
			b.NewBlock()
			for n := 1 + x.Intn(12); n > 0; n-- {
				op := allOps[x.Intn(len(allOps))]
				dstF, aF, bF := op.Operands()
				ins := prog.Instr{Op: op}
				if dstF != isa.RegNone {
					ins.Dst = uint8(x.Intn(dstF.RegCount()))
				}
				if aF != isa.RegNone {
					ins.A = uint8(x.Intn(aF.RegCount()))
				}
				if bF != isa.RegNone {
					ins.B = uint8(x.Intn(bF.RegCount()))
				}
				if op.HasImm() {
					ins.Imm = int64(x.Next()>>32) - (1 << 31)
				}
				b.Emit(ins)
			}
			if bi == nBlocks-1 {
				b.Halt()
			} else if x.Intn(2) == 0 {
				b.Branch(isa.OpBlt, uint8(x.Intn(16)), uint8(x.Intn(16)),
					prog.Label(x.Intn(nBlocks)))
			} else {
				b.Jmp(prog.Label(x.Intn(nBlocks)))
			}
		}
		p, err := b.Build()
		if err != nil {
			return false
		}
		q, err := Assemble(prog.Disassemble(p))
		if err != nil {
			return false
		}
		return programsEqual(p, q) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestAssembleErrors(t *testing.T) {
	tests := []struct {
		name, src, wantSub string
	}{
		{"empty", "", "no blocks"},
		{"instr before block", ".mem 4096 1\nadd r1, r2, r3", "before any .block"},
		{"unknown mnemonic", ".block 0\nfrobnicate r1", "unknown mnemonic"},
		{"unknown directive", ".widget 5", "unknown directive"},
		{"bad register file", ".block 0\nadd f1, r2, r3", "want file"},
		{"register out of range", ".block 0\nadd r16, r2, r3", "out of range"},
		{"vector out of range", ".block 0\nvadd v8, v0, v1", "out of range"},
		{"bad operand count", ".block 0\nadd r1, r2", "register operands"},
		{"bad immediate", ".block 0\nmovi r1, abc", "invalid syntax"},
		{"bad target", ".block 0\njmp 3", "bad branch target"},
		{"bad mem operand", ".block 0\nload r1, r2", "bad memory operand"},
		{"blocks out of order", ".block 1\nhalt", "densely in order"},
		{"duplicate mem", ".mem 4096 1\n.mem 4096 1\n.block 0\nhalt", "duplicate .mem"},
		{"mem operand count", ".mem 4096\n.block 0\nhalt", ".mem wants"},
		{"halt with operands", ".block 0\nhalt r1", "no operands"},
		{"dangling branch", ".block 0\njmp @9", "target out of range"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Assemble(tt.src)
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.Contains(err.Error(), tt.wantSub) {
				t.Errorf("error %q does not contain %q", err, tt.wantSub)
			}
		})
	}
}

func TestErrorIncludesLineNumber(t *testing.T) {
	src := ".mem 4096 1\n.block 0\n\tadd r1, r2, r3\n\tbogus r1\n\thalt"
	_, err := Assemble(src)
	if err == nil {
		t.Fatal("expected error")
	}
	var perr *Error
	if !errors.As(err, &perr) {
		t.Fatalf("error %T is not *asm.Error", err)
	}
	if perr.Line != 4 {
		t.Errorf("error line = %d, want 4", perr.Line)
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	src := `
; leading comment
.mem 4096 0x1   ; trailing comment
.block 0        ; block comment
   movi r1, 5   ; indented with spaces
	halt
`
	p, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Instrs(0)) != 2 {
		t.Errorf("got %d instructions, want 2", len(p.Instrs(0)))
	}
}

// TestMemAfterBlocks: the memory declaration may follow the code it
// belongs to.
func TestMemAfterBlocks(t *testing.T) {
	p, err := Assemble(".block 0\nhalt\n.mem 8192 0x7")
	if err != nil {
		t.Fatal(err)
	}
	if p.MemSize != 8192 || p.MemSeed != 7 {
		t.Errorf("memory decl = %d/%#x, want 8192/0x7", p.MemSize, p.MemSeed)
	}
}

func TestHexImmediates(t *testing.T) {
	p, err := Assemble(".mem 0x1000 0xff\n.block 0\nmovi r1, 0x10\nmovi r2, -0x10\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	if p.MemSize != 4096 {
		t.Errorf("hex mem size = %d, want 4096", p.MemSize)
	}
	if got := p.Instrs(0)[0].Imm; got != 16 {
		t.Errorf("hex immediate = %d, want 16", got)
	}
	if got := p.Instrs(0)[1].Imm; got != -16 {
		t.Errorf("negative hex immediate = %d, want -16", got)
	}
}

func TestDisassembleIsExecutableDocumentation(t *testing.T) {
	p, err := Assemble(sampleSource)
	if err != nil {
		t.Fatal(err)
	}
	text := prog.Disassemble(p)
	for _, want := range []string{".mem 4096 0xbeef", ".block 2", "halt", "load r7, [r6+16]", "fload f4, [r6-8]"} {
		if !strings.Contains(text, want) {
			t.Errorf("disassembly missing %q:\n%s", want, text)
		}
	}
}

func BenchmarkAssemble(b *testing.B) {
	p, err := Assemble(sampleSource)
	if err != nil {
		b.Fatal(err)
	}
	text := prog.Disassemble(p)
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Assemble(text); err != nil {
			b.Fatal(err)
		}
	}
}
