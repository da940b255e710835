package refprog

import (
	"fmt"

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
// Build lays the blocks out and returns what
// prog.Program.Validate says of the result, the one check a program gets.
// Emitting before the first NewBlock, or after SetBlock to a label
// NewBlock never returned, panics.
//
// The instructions are kept in one slice in emission order, cut into runs
// emitted into one block each, which Build lays out by block: a slice per
// block would grow from nothing, allocation by allocation, for every
// block of every program.
type Builder struct {
	code    []prog.Instr
	runs    []run
	nblocks int
	current int
	memSize int
	memSeed uint64
}

// run is a stretch of Builder.code emitted into one block: from start to
// the next run's start (or the end of the code).
type run struct {
	block Label
	start int
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
	b.current = b.nblocks
	b.nblocks++
	return Label(b.current)
}

// SetBlock switches emission to block l.
func (b *Builder) SetBlock(l Label) { b.current = int(l) }

// Emit appends ins to the current block with its Class set (whatever the
// caller left in ins.Class is overwritten).
func (b *Builder) Emit(ins prog.Instr) {
	if uint(b.current) >= uint(b.nblocks) {
		panic(fmt.Sprintf("refprog: emit into block %d of %d", b.current, b.nblocks))
	}
	if n := len(b.runs); n == 0 || b.runs[n-1].block != Label(b.current) {
		b.runs = append(b.runs, run{Label(b.current), len(b.code)})
	}
	ins.Class = ins.Op.ClassOf()
	b.code = append(b.code, ins)
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
// why prog.Program.Validate rejects it. The program takes the builder's
// instructions, so a Builder builds one program: code emitted block by
// block in label order is handed over as it stands, and anything else is
// copied out block by block.
func (b *Builder) Build() (*prog.Program, error) {
	p := &prog.Program{
		Code:    b.code,
		Blocks:  make([]prog.Block, b.nblocks),
		MemSize: b.memSize,
		MemSeed: b.memSeed,
	}
	end := func(i int) int {
		if i+1 < len(b.runs) {
			return b.runs[i+1].start
		}
		return len(b.code)
	}
	inOrder := true
	for i, r := range b.runs {
		p.Blocks[r.block].Len += uint32(end(i) - r.start)
		inOrder = inOrder && (i == 0 || r.block > b.runs[i-1].block)
	}
	for l := 1; l < b.nblocks; l++ {
		p.Blocks[l].Start = p.Blocks[l-1].Start + p.Blocks[l-1].Len
	}
	if !inOrder {
		p.Code = make([]prog.Instr, len(b.code))
		next := make([]uint32, b.nblocks) // where block l's next instruction goes
		for l := range next {
			next[l] = p.Blocks[l].Start
		}
		for i, r := range b.runs {
			next[r.block] += uint32(copy(p.Code[next[r.block]:], b.code[r.start:end(i)]))
		}
	}
	b.code, b.runs = nil, nil
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
