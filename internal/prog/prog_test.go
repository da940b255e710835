package prog

import (
	"errors"
	"testing"
	"unsafe"

	"hashcore/internal/isa"
)

// tinyValid returns a minimal valid program: one block computing a bit and
// halting.
func tinyValid() *Program {
	return HandBuilt(DefaultMemSize,
		[]Instr{{Op: isa.OpMovI, Dst: 1, Imm: 42}, {Op: isa.OpAdd, Dst: 2, A: 1, B: 1}, {Op: isa.OpHalt}})
}

// HandBuilt lays a program out from its blocks' instructions: the tests'
// own derivation of the block table, Class and Uses, so that Validate and
// refprog.Builder (builder_test.go) are each checked against something
// other than themselves.
func HandBuilt(memSize int, blocks ...[]Instr) *Program {
	p := &Program{MemSize: memSize}
	for _, instrs := range blocks {
		p.Blocks = append(p.Blocks, Block{Start: uint32(len(p.Code)), Len: uint32(len(instrs))})
		p.Code = append(p.Code, instrs...)
	}
	for i := range p.Code {
		p.Code[i].Class = p.Code[i].Op.ClassOf()
		in := &p.Code[i]
		dst, a, b := in.Op.Operands()
		for k, f := range []isa.RegFile{dst, a, b} {
			if f == isa.RegInt {
				p.Uses[[]uint8{in.Dst, in.A, in.B}[k]]++
			}
		}
	}
	return p
}

// Dropping a field must not grow the record: the engines and the stamp
// loop walk Code in 24-byte strides, and the next size up is 32.
func TestInstrIs24Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Instr{}); n != 24 {
		t.Fatalf("prog.Instr is %d bytes, want 24", n)
	}
}

func TestValidateAcceptsMinimal(t *testing.T) {
	if err := tinyValid().Validate(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Program)
		wantErr error
	}{
		{"no blocks", func(p *Program) { p.Blocks, p.Code = nil, nil }, ErrNoBlocks},
		{"bad memsize not pow2", func(p *Program) { p.MemSize = 3000 }, ErrBadMemSize},
		{"bad memsize too small", func(p *Program) { p.MemSize = 1024 }, ErrBadMemSize},
		{"bad memsize too large", func(p *Program) { p.MemSize = MaxMemSize * 2 }, ErrBadMemSize},
		{
			"control mid-block",
			func(p *Program) {
				p.Code[0] = Instr{Op: isa.OpJmp, Target: 0}
			},
			ErrMisplacedControl,
		},
		{
			"bad branch target",
			func(p *Program) {
				p.Code[len(p.Code)-1] = Instr{Op: isa.OpJmp, Target: 99}
			},
			ErrBadTarget,
		},
		{
			"invalid opcode",
			func(p *Program) { p.Code[0].Op = isa.Opcode(250) },
			ErrBadOpcode,
		},
		{
			"register out of range",
			func(p *Program) { p.Code[1].Dst = 16 },
			ErrBadRegister,
		},
		{
			"unused operand must be zero",
			func(p *Program) { p.Code[0].A = 3 }, // movi uses no A
			ErrBadRegister,
		},
		{
			"fallthrough off the end",
			func(p *Program) { // drop halt
				p.Code = p.Code[:2]
				p.Blocks[0].Len--
			},
			ErrNoHalt,
		},
		{
			"target on an instruction that takes none",
			func(p *Program) { p.Code[1].Target = 1 }, // add
			ErrBadTarget,
		},
		{
			"target on halt",
			func(p *Program) { p.Code[2].Target = 1 },
			ErrBadTarget,
		},
		{
			"vector register out of range",
			func(p *Program) {
				p.Code[0] = Instr{Op: isa.OpVAdd, Dst: 8}
			},
			ErrBadRegister,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := tinyValid()
			tt.mutate(p)
			err := p.Validate()
			if !errors.Is(err, tt.wantErr) {
				t.Errorf("Validate() = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

// TestValidateRejectsLyingStats: every derived field of a validated
// program can be trusted, so each one, when it lies, must fail Validate.
func TestValidateRejectsLyingStats(t *testing.T) {
	build := func() *Program {
		return HandBuilt(MinMemSize,
			[]Instr{{Op: isa.OpMovI, Dst: 1, Imm: 5}, {Op: isa.OpJmp, Target: 1}},
			[]Instr{{Op: isa.OpHalt}})
	}
	if err := build().Validate(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
	for _, tt := range []struct {
		name string
		lie  func(*Program)
	}{
		{"length too long", func(p *Program) { p.Blocks[1].Len = 99 }},
		{"length too short", func(p *Program) { p.Blocks[0].Len = 1 }},
		{"start off by one", func(p *Program) { p.Blocks[1].Start = 1 }},
		{"blocks overlap", func(p *Program) { p.Blocks[1].Start, p.Blocks[1].Len = 1, 2 }},
		{"code beyond the last block", func(p *Program) { p.Code = append(p.Code, p.Code[2]) }},
		{"a block table row missing", func(p *Program) {
			p.Blocks = p.Blocks[:1]
			p.Code[1].Target = 0 // block 1 is gone: jump to block 0 instead
		}},
		{"wrong class", func(p *Program) { p.Code[0].Class = isa.ClassFPALU }},
		{"no class", func(p *Program) { p.Code[2].Class = 0 }},
		{"uses miscounted", func(p *Program) { p.Uses[1]++ }},
		{"uses on the wrong register", func(p *Program) { p.Uses[1], p.Uses[2] = 0, 1 }},
	} {
		t.Run(tt.name, func(t *testing.T) {
			p := build()
			tt.lie(p)
			if err := p.Validate(); !errors.Is(err, ErrBadDerived) {
				t.Errorf("Validate = %v, want ErrBadDerived", err)
			}
		})
	}
}

func TestValidateRejectsCondBranchLastBlock(t *testing.T) {
	// {b0: jmp->2, b1: halt, b2: bne->1}: statically contains a halt, but
	// the last block falls off the end whenever its branch is not taken.
	p := HandBuilt(MinMemSize,
		[]Instr{{Op: isa.OpJmp, Target: 2}},
		[]Instr{{Op: isa.OpHalt}},
		[]Instr{{Op: isa.OpBne, A: 0, B: 0, Target: 1}})
	if err := p.Validate(); !errors.Is(err, ErrNoHalt) {
		t.Errorf("Validate(cond-branch last block) = %v, want ErrNoHalt", err)
	}
	// A jmp-terminated last block cannot fall off the end and stays valid.
	p = HandBuilt(MinMemSize,
		[]Instr{{Op: isa.OpJmp, Target: 2}},
		[]Instr{{Op: isa.OpHalt}},
		[]Instr{{Op: isa.OpJmp, Target: 1}})
	if err := p.Validate(); err != nil {
		t.Errorf("Validate(jmp last block) = %v, want nil", err)
	}
}
