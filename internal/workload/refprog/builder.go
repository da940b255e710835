package refprog

import (
	"hashcore/internal/isa"
	"hashcore/internal/prog"
)

// Builder writes a prog.Program block by block: the reference programs,
// randomxlite's generator and tests write through one. (The widget
// generator writes its programs itself; see internal/perfprox.)
//
// Blocks are named by the labels NewBlock returns, so code can name a
// block before its instructions are written (forward branches, loop
// back-edges), and they may be filled in any order. Emit only appends;
// Build lays the blocks out, counts Uses and returns what
// prog.Program.Validate says of the result, the one check a program gets.
// Emitting before the first NewBlock, or after SetBlock to a label
// NewBlock never returned, panics.
type Builder struct {
	blocks  [][]prog.Instr
	current int
	memSize int
	memSeed uint64
}

// Label names a block created by NewBlock.
type Label uint32

// NewBuilder returns a Builder for a program with the given scratch-memory
// declaration.
func NewBuilder(memSize int, memSeed uint64) *Builder {
	return &Builder{current: -1, memSize: memSize, memSeed: memSeed}
}

// NewBlock creates a new empty block and returns its label. The block
// becomes the current emission target.
func (b *Builder) NewBlock() Label {
	b.blocks = append(b.blocks, nil)
	b.current = len(b.blocks) - 1
	return Label(b.current)
}

// SetBlock switches emission to block l.
func (b *Builder) SetBlock(l Label) { b.current = int(l) }

// Emit appends ins to the current block with its Class set (whatever the
// caller left in ins.Class is overwritten).
func (b *Builder) Emit(ins prog.Instr) {
	ins.Class = ins.Op.ClassOf()
	b.blocks[b.current] = append(b.blocks[b.current], ins)
}

// Op3 emits a three-register-operand instruction.
func (b *Builder) Op3(op isa.Opcode, dst, a, bb uint8) {
	b.Emit(prog.Instr{Op: op, Dst: dst, A: a, B: bb})
}

// Op2 emits a two-register-operand instruction (dst, a).
func (b *Builder) Op2(op isa.Opcode, dst, a uint8) {
	b.Emit(prog.Instr{Op: op, Dst: dst, A: a})
}

// MovI emits dst = imm.
func (b *Builder) MovI(dst uint8, imm int64) {
	b.Emit(prog.Instr{Op: isa.OpMovI, Dst: dst, Imm: imm})
}

// AddI emits dst = a + imm.
func (b *Builder) AddI(dst, a uint8, imm int64) {
	b.Emit(prog.Instr{Op: isa.OpAddI, Dst: dst, A: a, Imm: imm})
}

// Load emits dst = mem[a + imm].
func (b *Builder) Load(dst, a uint8, imm int64) {
	b.Emit(prog.Instr{Op: isa.OpLoad, Dst: dst, A: a, Imm: imm})
}

// FLoad emits fdst = mem[a + imm].
func (b *Builder) FLoad(dst, a uint8, imm int64) {
	b.Emit(prog.Instr{Op: isa.OpFLoad, Dst: dst, A: a, Imm: imm})
}

// Store emits mem[a + imm] = rb.
func (b *Builder) Store(a, src uint8, imm int64) {
	b.Emit(prog.Instr{Op: isa.OpStore, A: a, B: src, Imm: imm})
}

// FStore emits mem[a + imm] = fb.
func (b *Builder) FStore(a, src uint8, imm int64) {
	b.Emit(prog.Instr{Op: isa.OpFStore, A: a, B: src, Imm: imm})
}

// Branch emits the conditional branch op on (a, b) to the target label.
func (b *Builder) Branch(op isa.Opcode, a, bb uint8, target Label) {
	b.Emit(prog.Instr{Op: op, A: a, B: bb, Target: uint32(target)})
}

// Jmp emits an unconditional jump to the target label.
func (b *Builder) Jmp(target Label) {
	b.Emit(prog.Instr{Op: isa.OpJmp, Target: uint32(target)})
}

// Halt emits a halt instruction.
func (b *Builder) Halt() {
	b.Emit(prog.Instr{Op: isa.OpHalt})
}

// Build lays the blocks out in label order and returns the program, or
// why prog.Program.Validate rejects it. The program owns its storage; the
// builder may go on emitting and build again.
func (b *Builder) Build() (*prog.Program, error) {
	n := 0
	for _, code := range b.blocks {
		n += len(code)
	}
	p := &prog.Program{
		Code:    make([]prog.Instr, 0, n),
		Blocks:  make([]prog.Block, 0, len(b.blocks)),
		MemSize: b.memSize,
		MemSeed: b.memSeed,
	}
	for _, code := range b.blocks {
		p.Blocks = append(p.Blocks, prog.Block{Start: uint32(len(p.Code)), Len: uint32(len(code))})
		p.Code = append(p.Code, code...)
	}
	p.Uses = prog.CountUses(p.Code)
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustBuild is Build for programs constructed from trusted, static code;
// it panics on error.
func (b *Builder) MustBuild() *prog.Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
