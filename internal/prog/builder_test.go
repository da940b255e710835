package prog_test

import (
	"errors"
	"slices"
	"testing"

	"hashcore/internal/isa"
	"hashcore/internal/prog"
	"hashcore/internal/workload/refprog"
)

// The reference-program builder (package refprog) is checked here, against
// Validate and this package's hand layout (prog.HandBuilt in prog_test.go): its
// one check is Validate, so a builder error is a Validate error.

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

func TestBuilderErrors(t *testing.T) {
	t.Run("emit before block", func(t *testing.T) {
		b := refprog.NewBuilder(prog.DefaultMemSize, 0)
		mustPanic(t, "Emit before NewBlock", func() { b.MovI(0, 1) })
	})
	t.Run("branch with non-branch opcode", func(t *testing.T) {
		b := refprog.NewBuilder(prog.DefaultMemSize, 0)
		b.NewBlock()
		b.Branch(isa.OpAdd, 0, 0, b.NewBlock())
		b.Halt()
		if _, err := b.Build(); !errors.Is(err, prog.ErrBadTarget) {
			t.Fatalf("Build = %v, want prog.ErrBadTarget", err)
		}
	})
	t.Run("target on a non-branch", func(t *testing.T) {
		b := refprog.NewBuilder(prog.DefaultMemSize, 0)
		b.NewBlock()
		b.Emit(prog.Instr{Op: isa.OpAdd, Target: 1})
		b.Halt()
		if _, err := b.Build(); !errors.Is(err, prog.ErrBadTarget) {
			t.Fatalf("Build = %v, want prog.ErrBadTarget", err)
		}
	})
	t.Run("setblock out of range", func(t *testing.T) {
		b := refprog.NewBuilder(prog.DefaultMemSize, 0)
		b.NewBlock()
		b.SetBlock(5)
		mustPanic(t, "Emit after SetBlock(5) of 1 block", b.Halt)
	})
}

func TestBuilderMultiBlockControlFlow(t *testing.T) {
	b := refprog.NewBuilder(prog.DefaultMemSize, 7)
	entry := b.NewBlock()
	body := b.NewBlock()
	exit := b.NewBlock()

	b.SetBlock(entry)
	b.MovI(1, 10)
	b.Jmp(body)

	// Blocks may be filled in any order: Build lays them out by label.
	b.SetBlock(exit)
	b.Halt()

	b.SetBlock(body)
	b.AddI(1, 1, -1)
	b.MovI(2, 0)
	b.Branch(isa.OpBne, 1, 2, body)

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
	if term.Op != isa.OpBne || refprog.Label(term.Target) != body {
		t.Fatalf("body terminator = %+v", term)
	}
	want := prog.HandBuilt(prog.DefaultMemSize,
		[]prog.Instr{{Op: isa.OpMovI, Dst: 1, Imm: 10}, {Op: isa.OpJmp, Target: 1}},
		[]prog.Instr{{Op: isa.OpAddI, Dst: 1, A: 1, Imm: -1}, {Op: isa.OpMovI, Dst: 2}, {Op: isa.OpBne, A: 1, B: 2, Target: 1}},
		[]prog.Instr{{Op: isa.OpHalt}})
	if !slices.Equal(p.Code, want.Code) || !slices.Equal(p.Blocks, want.Blocks) {
		t.Errorf("built\n %+v\n %+v\nwant\n %+v\n %+v", p.Code, p.Blocks, want.Code, want.Blocks)
	}
}

func TestBuilderFillsBlockStats(t *testing.T) {
	b := refprog.NewBuilder(prog.MinMemSize, 7)
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
	want := prog.HandBuilt(prog.MinMemSize,
		[]prog.Instr{{Op: isa.OpMovI, Dst: 1, Imm: 5}, {Op: isa.OpMul, Dst: 2, A: 1, B: 1}, {Op: isa.OpLoad, Dst: 3, A: 1, Imm: 8}, {Op: isa.OpJmp, Target: 1}},
		[]prog.Instr{{Op: isa.OpFAdd, Dst: 1}, {Op: isa.OpStore, A: 1, B: 2}, {Op: isa.OpHalt}})
	if !slices.Equal(p.Blocks, want.Blocks) || !slices.Equal(p.Code, want.Code) || p.Uses != want.Uses {
		t.Errorf("builder wrote\n %+v\n %+v\n %v\nrecomputed\n %+v\n %+v\n %v",
			p.Blocks, p.Code, p.Uses, want.Blocks, want.Code, want.Uses)
	}
	if e := p.Blocks[0]; e.Start != 0 || e.Len != 4 {
		t.Errorf("entry block wrong: %+v", e)
	}
	if e := p.Blocks[1]; e.Start != 4 || e.Len != 3 {
		t.Errorf("body block wrong: %+v", e)
	}
}
