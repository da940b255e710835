package prog

import (
	"errors"
	"fmt"

	"hashcore/internal/isa"
)

// Builder incrementally constructs a Program block by block. Every program
// is written through one: by the widget generator, the hand-written
// reference workloads and the assembler. Builders are not safe for
// concurrent use.
//
// Blocks are identified by the labels returned from NewBlock, so code can
// reference a block before its instructions are emitted (needed for forward
// branches and loop back-edges). They may be declared ahead in any number,
// but must be filled in index order: once a block has received an
// instruction, no block before it can. Every caller works that way — a
// branch diamond declares its arms and its join, then fills them one after
// the other; the assembler reads blocks in order — and
// it lets Emit write each instruction once, validated and in its final
// place in Program.Code, leaving Build only the block starts to lay out
// and the branch targets to check. The builder is the one writer of a
// program's derived fields (Instr.Class, the block table).
//
// Code and the block table grow to a high-water capacity and are reused
// across Reset, so a generation loop that recycles one builder reaches a
// zero-allocation steady state even though individual block shapes differ
// from program to program.
type Builder struct {
	program Program // Code and Blocks grow here as the caller emits
	current int     // index of the block being appended to, -1 if none
	last    int     // index of the block holding the newest instruction, -1 if none
	// sealed: the current block ends in a control instruction, after which
	// nothing may follow.
	sealed bool
	err    error
}

// ErrBlockOrder is latched when emission moves back to a block before one
// that already holds instructions.
var ErrBlockOrder = errors.New("prog: blocks must be filled in index order")

// NewBuilder returns a Builder for a program with the given scratch-memory
// declaration.
func NewBuilder(memSize int, memSeed uint64) *Builder {
	b := &Builder{}
	b.Reset(memSize, memSeed)
	return b
}

// Reset reclaims the builder for a new program with the given
// scratch-memory declaration, retaining the storage accumulated by
// previous programs so steady-state regeneration allocates nothing.
// Programs previously returned by Build share that storage and are
// invalidated; only callers that have finished with them (or copied them)
// may Reset.
func (b *Builder) Reset(memSize int, memSeed uint64) {
	b.program = Program{Code: b.program.Code[:0], Blocks: b.program.Blocks[:0], MemSize: memSize, MemSeed: memSeed}
	b.current, b.last = -1, -1
	b.sealed = false
	b.err = nil
}

// SetMemory replaces the scratch-memory declaration given to NewBuilder or
// Reset, for sources that state it after their first block (assembly text
// may).
func (b *Builder) SetMemory(memSize int, memSeed uint64) {
	b.program.MemSize, b.program.MemSeed = memSize, memSeed
}

// Label names a block created by NewBlock.
type Label uint32

// NewBlock creates a new empty block and returns its label. The block
// becomes the current emission target.
func (b *Builder) NewBlock() Label {
	b.program.Blocks = append(b.program.Blocks, Block{})
	b.current = len(b.program.Blocks) - 1
	b.sealed = false
	return Label(b.current)
}

// SetBlock switches emission to a previously created block: the one that
// received the newest instruction, or any after it.
func (b *Builder) SetBlock(l Label) {
	if int(l) >= len(b.program.Blocks) {
		b.fail(fmt.Errorf("prog: SetBlock(%d) out of range", l))
		return
	}
	if int(l) < b.last {
		b.fail(fmt.Errorf("%w: SetBlock(%d) after block %d was written", ErrBlockOrder, l, b.last))
		return
	}
	b.current = int(l)
	b.sealed = int(l) == b.last && b.program.Code[len(b.program.Code)-1].Op.IsControl()
}

// Emit appends a raw instruction to the current block: validated (the
// checks are Program.Validate's) and given its Class on the spot;
// whatever the caller left in ins.Class is overwritten. It is
// the single hottest call in widget generation, entered once per generated
// instruction through the Op3/Op2/immediate wrappers. The first failure is
// latched and reported by Build; whatever is emitted after it is dropped.
func (b *Builder) Emit(ins Instr) {
	meta := isa.MetaOf(ins.Op)
	if b.current < 0 || b.sealed || b.err != nil || meta&isa.MetaValid == 0 ||
		ins.Dst >= meta.LimDst() || ins.A >= meta.LimA() || ins.B >= meta.LimB() ||
		(ins.Target != 0 && !takesTarget(ins.Op, meta)) {
		b.emitInvalid(ins)
		return
	}
	ins.Class = meta.Class()
	b.program.Code = append(b.program.Code, ins)
	b.program.Blocks[b.current].Len++
	b.sealed = meta&isa.MetaControl != 0
	b.last = b.current
}

// emitInvalid latches why Emit refused ins, in Program.Validate's terms.
//
//go:noinline
func (b *Builder) emitInvalid(ins Instr) {
	if b.err != nil {
		return
	}
	if b.current < 0 {
		b.fail(fmt.Errorf("prog: Emit before NewBlock"))
		return
	}
	n := b.program.Blocks[b.current].Len
	meta := isa.MetaOf(ins.Op)
	switch {
	case meta&isa.MetaValid == 0:
		b.fail(fmt.Errorf("%w: block %d instr %d (op=%d)", ErrBadOpcode, b.current, n, ins.Op))
	case b.sealed:
		b.fail(fmt.Errorf("%w: block %d instr %d (%s)",
			ErrMisplacedControl, b.current, n-1, b.program.Code[len(b.program.Code)-1].Op))
	case ins.Dst >= meta.LimDst() || ins.A >= meta.LimA() || ins.B >= meta.LimB():
		b.fail(fmt.Errorf("%w: block %d instr %d (%s)", ErrBadRegister, b.current, n, ins.Op))
	default:
		b.fail(fmt.Errorf("%w: block %d instr %d (%s takes no target, has %d)", ErrBadTarget, b.current, n, ins.Op, ins.Target))
	}
}

// Op3 emits a three-register-operand instruction.
func (b *Builder) Op3(op isa.Opcode, dst, a, bb uint8) {
	b.Emit(Instr{Op: op, Dst: dst, A: a, B: bb})
}

// Op2 emits a two-register-operand instruction (dst, a).
func (b *Builder) Op2(op isa.Opcode, dst, a uint8) {
	b.Emit(Instr{Op: op, Dst: dst, A: a})
}

// MovI emits dst = imm.
func (b *Builder) MovI(dst uint8, imm int64) {
	b.Emit(Instr{Op: isa.OpMovI, Dst: dst, Imm: imm})
}

// AddI emits dst = a + imm.
func (b *Builder) AddI(dst, a uint8, imm int64) {
	b.Emit(Instr{Op: isa.OpAddI, Dst: dst, A: a, Imm: imm})
}

// Load emits dst = mem[a + imm].
func (b *Builder) Load(dst, a uint8, imm int64) {
	b.Emit(Instr{Op: isa.OpLoad, Dst: dst, A: a, Imm: imm})
}

// FLoad emits fdst = mem[a + imm].
func (b *Builder) FLoad(dst, a uint8, imm int64) {
	b.Emit(Instr{Op: isa.OpFLoad, Dst: dst, A: a, Imm: imm})
}

// Store emits mem[a + imm] = rb.
func (b *Builder) Store(a, src uint8, imm int64) {
	b.Emit(Instr{Op: isa.OpStore, A: a, B: src, Imm: imm})
}

// FStore emits mem[a + imm] = fb.
func (b *Builder) FStore(a, src uint8, imm int64) {
	b.Emit(Instr{Op: isa.OpFStore, A: a, B: src, Imm: imm})
}

// Branch emits a conditional branch on (a, b) to the target label.
func (b *Builder) Branch(op isa.Opcode, a, bb uint8, target Label) {
	if !op.IsCondBranch() {
		b.fail(fmt.Errorf("prog: Branch with non-branch opcode %s", op))
		return
	}
	b.Emit(Instr{Op: op, A: a, B: bb, Target: uint32(target)})
}

// Jmp emits an unconditional jump to the target label.
func (b *Builder) Jmp(target Label) {
	b.Emit(Instr{Op: isa.OpJmp, Target: uint32(target)})
}

// Halt emits a halt instruction.
func (b *Builder) Halt() {
	b.Emit(Instr{Op: isa.OpHalt})
}

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// finish completes the program Emit has been writing: it lays the blocks
// out (a block's start is only known when every block before it is
// complete) and checks what cannot be
// checked per instruction — size limits, the memory declaration, target
// ranges, halt reachability. Together with Emit's checks these are exactly
// Program.Validate's, so BuildInto need not run a second sweep on the hot
// generation path; Build still runs the canonical Validate afterwards,
// which keeps every cold-path Build in the test suite doubling as a
// consistency oracle for this split pass.
func (b *Builder) finish() error {
	if b.err != nil {
		return b.err
	}
	p := &b.program
	nb := len(p.Blocks)
	if nb == 0 {
		return ErrNoBlocks
	}
	if nb > MaxBlocks || len(p.Code) > MaxTotalStatic {
		return ErrTooLarge
	}
	if !isPow2(p.MemSize) || p.MemSize < MinMemSize || p.MemSize > MaxMemSize {
		return fmt.Errorf("%w: %d", ErrBadMemSize, p.MemSize)
	}
	off := uint32(0)
	for bi := range p.Blocks {
		blk := &p.Blocks[bi]
		if blk.Len > MaxBlockInstrs {
			return fmt.Errorf("%w: block %d has %d instructions", ErrTooLarge, bi, blk.Len)
		}
		blk.Start = off
		off += blk.Len
	}

	// Control instructions are block terminators (Emit refuses anything
	// after one), so the terminators are all there is to check.
	haveHalt := false
	term := isa.OpInvalid
	for bi := range p.Blocks {
		term = isa.OpInvalid
		blk := &p.Blocks[bi]
		if blk.Len == 0 {
			continue
		}
		ins := &p.Code[blk.Start+blk.Len-1]
		if !ins.Op.IsControl() {
			continue
		}
		if term = ins.Op; term == isa.OpHalt {
			haveHalt = true
			continue
		}
		if int(ins.Target) >= nb {
			return fmt.Errorf("%w: block %d -> %d (have %d blocks)", ErrBadTarget, bi, ins.Target, nb)
		}
	}
	return checkHalts(term, haveHalt)
}

// Build validates and returns the constructed program. The returned
// program shares the builder's storage: it stays valid until the next
// Reset, after which the builder may be used again (reusing that
// storage). Callers that never Reset can treat the program as immutable
// forever, so existing single-shot uses are unaffected.
func (b *Builder) Build() (*Program, error) {
	p := new(Program)
	if err := b.BuildInto(p); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// BuildInto is Build for reusable-program callers: it stores the
// constructed program in *out, overwriting the previous contents. Combined
// with Reset it lets a generation loop reuse one Program value (and the
// builder's storage) with zero steady-state allocation. Validation
// happened in Emit and happens in finish (each instruction is touched
// once); Build additionally re-runs the canonical Validate, pinning the
// two paths to each other.
func (b *Builder) BuildInto(out *Program) error {
	if err := b.finish(); err != nil {
		return err
	}
	*out = b.program
	return nil
}

// MustBuild is Build for programs constructed from trusted, static code
// (the reference workloads); it panics on error.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
