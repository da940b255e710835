package prog

import (
	"errors"
	"slices"
	"testing"
	"unsafe"

	"hashcore/internal/isa"
)

// tinyValid returns a minimal valid program: one block computing a bit and
// halting.
func tinyValid() *Program {
	b := NewBuilder(DefaultMemSize, 1)
	b.NewBlock()
	b.MovI(1, 42)
	b.Op3(isa.OpAdd, 2, 1, 1)
	b.Halt()
	return b.MustBuild()
}

// handBuilt lays a program out from its blocks' instructions without the
// Builder: the tests' own derivation of the block table and Class, so
// that Validate and the Builder are each checked against something other
// than themselves.
func handBuilt(memSize int, blocks ...[]Instr) *Program {
	p := &Program{MemSize: memSize}
	for _, instrs := range blocks {
		p.Blocks = append(p.Blocks, Block{Start: uint32(len(p.Code)), Len: uint32(len(instrs))})
		p.Code = append(p.Code, instrs...)
	}
	for i := range p.Code {
		p.Code[i].Class = p.Code[i].Op.ClassOf()
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

func TestBuilderErrors(t *testing.T) {
	t.Run("emit before block", func(t *testing.T) {
		b := NewBuilder(DefaultMemSize, 0)
		b.MovI(0, 1)
		if _, err := b.Build(); err == nil {
			t.Fatal("expected error for Emit before NewBlock")
		}
	})
	t.Run("branch with non-branch opcode", func(t *testing.T) {
		b := NewBuilder(DefaultMemSize, 0)
		l := b.NewBlock()
		b.Branch(isa.OpAdd, 0, 0, l)
		if _, err := b.Build(); err == nil {
			t.Fatal("expected error for Branch(OpAdd)")
		}
	})
	t.Run("target on a non-branch", func(t *testing.T) {
		b := NewBuilder(DefaultMemSize, 0)
		b.NewBlock()
		b.Emit(Instr{Op: isa.OpAdd, Target: 1})
		b.Halt()
		if _, err := b.Build(); !errors.Is(err, ErrBadTarget) {
			t.Fatalf("Build = %v, want ErrBadTarget", err)
		}
	})
	t.Run("setblock out of range", func(t *testing.T) {
		b := NewBuilder(DefaultMemSize, 0)
		b.NewBlock()
		b.SetBlock(5)
		if _, err := b.Build(); err == nil {
			t.Fatal("expected error for SetBlock out of range")
		}
	})
}

func TestBuilderMultiBlockControlFlow(t *testing.T) {
	b := NewBuilder(DefaultMemSize, 7)
	entry := b.NewBlock()
	body := b.NewBlock()
	exit := b.NewBlock()

	b.SetBlock(entry)
	b.MovI(1, 10)
	b.Jmp(body)

	b.SetBlock(body)
	b.AddI(1, 1, -1)
	b.MovI(2, 0)
	b.Branch(isa.OpBne, 1, 2, body)

	b.SetBlock(exit)
	b.Halt()

	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Blocks) != 3 {
		t.Fatalf("got %d blocks, want 3", len(p.Blocks))
	}
	if got := p.NumInstrs(); got != 6 {
		t.Errorf("NumInstrs = %d, want 6", got)
	}
	// The body's branch: block index in Target.
	term := p.Instrs(1)[2]
	if term.Op != isa.OpBne || Label(term.Target) != body {
		t.Fatalf("body terminator = %+v", term)
	}
	want := handBuilt(DefaultMemSize,
		[]Instr{{Op: isa.OpMovI, Dst: 1, Imm: 10}, {Op: isa.OpJmp, Target: 1}},
		[]Instr{{Op: isa.OpAddI, Dst: 1, A: 1, Imm: -1}, {Op: isa.OpMovI, Dst: 2}, {Op: isa.OpBne, A: 1, B: 2, Target: 1}},
		[]Instr{{Op: isa.OpHalt}})
	if !slices.Equal(p.Code, want.Code) || !slices.Equal(p.Blocks, want.Blocks) {
		t.Errorf("built\n %+v\n %+v\nwant\n %+v\n %+v", p.Code, p.Blocks, want.Code, want.Blocks)
	}
}

func TestBuilderFillsBlockStats(t *testing.T) {
	b := NewBuilder(MinMemSize, 7)
	entry := b.NewBlock()
	body := b.NewBlock()
	b.SetBlock(entry)
	b.MovI(1, 5)
	b.Op3(isa.OpMul, 2, 1, 1)
	b.Load(3, 1, 8)
	b.Jmp(body)
	b.SetBlock(body)
	b.Op3(isa.OpFAdd, 1, 0, 0)
	b.Store(1, 2, 0)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// The block table must equal an independent recomputation.
	want := handBuilt(MinMemSize,
		[]Instr{{Op: isa.OpMovI, Dst: 1, Imm: 5}, {Op: isa.OpMul, Dst: 2, A: 1, B: 1}, {Op: isa.OpLoad, Dst: 3, A: 1, Imm: 8}, {Op: isa.OpJmp, Target: 1}},
		[]Instr{{Op: isa.OpFAdd, Dst: 1}, {Op: isa.OpStore, A: 1, B: 2}, {Op: isa.OpHalt}})
	if !slices.Equal(p.Blocks, want.Blocks) || !slices.Equal(p.Code, want.Code) {
		t.Errorf("builder wrote\n %+v\n %+v\nrecomputed\n %+v\n %+v", p.Blocks, p.Code, want.Blocks, want.Code)
	}
	if e := p.Blocks[0]; e.Start != 0 || e.Len != 4 {
		t.Errorf("entry block wrong: %+v", e)
	}
	if e := p.Blocks[1]; e.Start != 4 || e.Len != 3 {
		t.Errorf("body block wrong: %+v", e)
	}
}

// TestValidateRejectsLyingStats: every derived field of a validated
// program can be trusted, so each one, when it lies, must fail Validate.
func TestValidateRejectsLyingStats(t *testing.T) {
	build := func() *Program {
		b := NewBuilder(MinMemSize, 7)
		b.NewBlock()
		b.MovI(1, 5)
		b.Jmp(1)
		b.NewBlock()
		b.Halt()
		return b.MustBuild()
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

func TestBuilderResetInvalidatesStats(t *testing.T) {
	b := NewBuilder(MinMemSize, 1)
	b.NewBlock()
	b.MovI(1, 2)
	b.Halt()
	var out Program
	if err := b.BuildInto(&out); err != nil {
		t.Fatal(err)
	}
	first := out.Blocks[0]

	b.Reset(MinMemSize, 2)
	b.NewBlock()
	b.Op3(isa.OpFAdd, 1, 0, 0)
	b.Op3(isa.OpFMul, 2, 1, 1)
	b.Halt()
	if err := b.BuildInto(&out); err != nil {
		t.Fatal(err)
	}
	if got := out.Blocks[0]; got.Len != 3 || out.Code[0].Class != isa.ClassFPALU || out.Code[1].Class != isa.ClassFPALU {
		t.Errorf("rebuilt block wrong: %+v (previous %+v)", got, first)
	}
	if err := out.Validate(); err != nil {
		t.Errorf("rebuilt program: %v", err)
	}
}

func TestValidateRejectsCondBranchLastBlock(t *testing.T) {
	// {b0: jmp->2, b1: halt, b2: bne->1}: statically contains a halt, but
	// the last block falls off the end whenever its branch is not taken.
	p := handBuilt(MinMemSize,
		[]Instr{{Op: isa.OpJmp, Target: 2}},
		[]Instr{{Op: isa.OpHalt}},
		[]Instr{{Op: isa.OpBne, A: 0, B: 0, Target: 1}})
	if err := p.Validate(); !errors.Is(err, ErrNoHalt) {
		t.Errorf("Validate(cond-branch last block) = %v, want ErrNoHalt", err)
	}
	// A jmp-terminated last block cannot fall off the end and stays valid.
	p = handBuilt(MinMemSize,
		[]Instr{{Op: isa.OpJmp, Target: 2}},
		[]Instr{{Op: isa.OpHalt}},
		[]Instr{{Op: isa.OpJmp, Target: 1}})
	if err := p.Validate(); err != nil {
		t.Errorf("Validate(jmp last block) = %v, want nil", err)
	}
}
