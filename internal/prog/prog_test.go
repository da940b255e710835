package prog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"hashcore/internal/isa"
	"hashcore/internal/rng"
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
// Builder: the tests' own derivation of the block table, Class and PC, so
// that Validate and the Builder are each checked against something other
// than themselves.
func handBuilt(memSize int, blocks ...[]Instr) *Program {
	p := &Program{MemSize: memSize}
	for _, instrs := range blocks {
		p.Blocks = append(p.Blocks, Block{Start: uint32(len(p.Code)), Len: uint32(len(instrs))})
		p.Code = append(p.Code, instrs...)
	}
	for bi := range p.Blocks {
		for i := range p.Instrs(bi) {
			ins := &p.Instrs(bi)[i]
			ins.Class = ins.Op.ClassOf()
			p.Blocks[bi].Tally[ins.Class]++
			if ins.Op.IsControl() && ins.Op != isa.OpHalt && int(ins.Target) < len(p.Blocks) {
				ins.PC = p.Blocks[ins.Target].Start
			}
		}
	}
	return p
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
				p.Blocks[0].Tally[isa.ClassBranch]--
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
	// The body's branch: block index in Target, the body's first instruction
	// (after the entry's two) in PC.
	term := p.Instrs(1)[2]
	if term.Op != isa.OpBne || Label(term.Target) != body || term.PC != 2 {
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

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := tinyValid()
	data := p.Encode()
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.MemSize != p.MemSize || got.MemSeed != p.MemSeed {
		t.Errorf("memory decl mismatch: got %d/%d, want %d/%d",
			got.MemSize, got.MemSeed, p.MemSize, p.MemSeed)
	}
	if !slices.Equal(got.Code, p.Code) || !slices.Equal(got.Blocks, p.Blocks) {
		t.Fatalf("decoded\n %+v\n %+v\nwant\n %+v\n %+v", got.Code, got.Blocks, p.Code, p.Blocks)
	}
}

// TestEncodeDecodeRandomPrograms round-trips randomly built (but valid)
// programs through the binary format.
func TestEncodeDecodeRandomPrograms(t *testing.T) {
	f := func(seed uint64) bool {
		x := rng.NewXoshiro256(seed)
		b := NewBuilder(1<<uint(12+x.Intn(8)), x.Next())
		nBlocks := 1 + x.Intn(5)
		for i := 0; i < nBlocks; i++ {
			b.NewBlock()
			for j := x.Intn(10); j > 0; j-- {
				b.Op3(isa.OpXor, uint8(x.Intn(16)), uint8(x.Intn(16)), uint8(x.Intn(16)))
			}
			if i == nBlocks-1 {
				b.Halt()
			} else {
				b.Jmp(Label(x.Intn(nBlocks)))
			}
		}
		p, err := b.Build()
		if err != nil {
			return false
		}
		q, err := Decode(p.Encode())
		if err != nil {
			return false
		}
		return slices.Equal(q.Code, p.Code) && slices.Equal(q.Blocks, p.Blocks) && bytes.Equal(q.Encode(), p.Encode())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	valid := tinyValid().Encode()

	tests := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"bad magic", func(d []byte) []byte { d[0] = 'X'; return d }},
		{"truncated", func(d []byte) []byte { return d[:len(d)-3] }},
		{"trailing garbage", func(d []byte) []byte { return append(d, 0xff) }},
		{"huge mem", func(d []byte) []byte { d[4] = 60; return d }},
		{"empty", func(d []byte) []byte { return nil }},
		{
			"invalid opcode inside",
			func(d []byte) []byte { d[24] = 255; return d },
		},
		{
			"target on a non-branch", // movi, the first instruction
			func(d []byte) []byte { d[28] = 1; return d },
		},
		{
			// A header alone that claims the most blocks the format allows:
			// rejected for what is missing, not after reserving room for it.
			"block count beyond the input",
			func(d []byte) []byte { return binary.LittleEndian.AppendUint32(d[:16], MaxBlocks) },
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			data := tt.mutate(bytes.Clone(valid))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Decode(data)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Error("Decode accepted corrupted input")
			}
			// No rejection may cost more memory than the input could justify.
			if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
				t.Errorf("Decode allocated %d bytes rejecting %d bytes of input", got, len(data))
			}
		})
	}
}

func TestDecodeValidates(t *testing.T) {
	// Build an encoding of a structurally broken program by hand: a
	// branch to a nonexistent block.
	b := NewBuilder(DefaultMemSize, 0)
	b.NewBlock()
	b.Halt()
	p := b.MustBuild()
	p.Code[0] = Instr{Op: isa.OpJmp, Target: 7}
	if _, err := Decode(p.Encode()); err == nil {
		t.Fatal("Decode accepted a program with a dangling branch target")
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
	if e := p.Blocks[0]; e.Start != 0 || e.Len != 4 || e.Tally[isa.ClassIntALU] != 1 ||
		e.Tally[isa.ClassIntMul] != 1 || e.Tally[isa.ClassLoad] != 1 || e.Tally[isa.ClassBranch] != 1 {
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
		{"tally too high", func(p *Program) { p.Blocks[0].Tally[isa.ClassIntALU]++ }},
		{"tally in the wrong class", func(p *Program) {
			p.Blocks[0].Tally[isa.ClassIntALU]--
			p.Blocks[0].Tally[isa.ClassFPALU]++
		}},
		{"length too long", func(p *Program) { p.Blocks[1].Len = 99 }},
		{"length too short", func(p *Program) { p.Blocks[0].Len = 1 }},
		{"start off by one", func(p *Program) { p.Blocks[1].Start = 1 }},
		{"blocks overlap", func(p *Program) { p.Blocks[1].Start, p.Blocks[1].Len = 1, 2 }},
		{"code beyond the last block", func(p *Program) { p.Code = append(p.Code, p.Code[2]) }},
		{"a block table row missing", func(p *Program) {
			p.Blocks = p.Blocks[:1]
			p.Code[1].Target, p.Code[1].PC = 0, 0 // block 1 is gone: jump to block 0 instead
		}},
		{"wrong class", func(p *Program) { p.Code[0].Class = isa.ClassFPALU }},
		{"no class", func(p *Program) { p.Code[2].Class = 0 }},
		{"wrong pc", func(p *Program) { p.Code[1].PC = 1 }},
		{"pc on an instruction without a target", func(p *Program) { p.Code[0].PC = 2 }},
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
	if got := out.Blocks[0]; got.Len != 3 || got.Tally[isa.ClassFPALU] != 2 || got.Tally[isa.ClassIntALU] != 0 {
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
