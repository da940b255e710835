package prog

import (
	"errors"
	"fmt"

	"hashcore/internal/isa"
)

// Builder incrementally constructs a Program block by block. It is used by
// the widget generator and by the hand-written reference workloads.
// Builders are not safe for concurrent use.
//
// Blocks are identified by the labels returned from NewBlock, so code can
// reference a block before its instructions are emitted (needed for forward
// branches and loop back-edges). They may be declared ahead in any number,
// but must be filled in index order: once a block has received an
// instruction, no block before it can. Every caller works that way — a
// branch diamond declares its arms and its join, then fills them one after
// the other — and it lets Emit write each instruction once, validated and
// in its final place in the program's flat stream, leaving Build only the
// branch targets to resolve.
//
// The flat stream, the per-block stats and the block-shaped copy Build
// carves for inspection grow to a high-water capacity and are reused
// across Reset, so a generation loop that recycles one builder reaches a
// zero-allocation steady state even though individual block shapes differ
// from program to program.
type Builder struct {
	program Program
	current int // index of the block being appended to, -1 if none
	last    int // index of the block holding the newest instruction, -1 if none
	// sealed: the current block ends in a control instruction, after which
	// nothing may follow.
	sealed bool
	err    error

	flat   []FlatInstr  // the program's pre-decoded stream, in block order
	stats  []BlockStats // per-block length and class tally, parallel to Blocks
	arena  []Instr      // block-contiguous storage carved at Build time
	starts []uint32     // per-block flat start offsets (Build scratch)
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
	blocks := b.program.Blocks[:0]
	b.program = Program{MemSize: memSize, MemSeed: memSeed, Blocks: blocks}
	b.current, b.last = -1, -1
	b.sealed = false
	b.err = nil
	b.flat = b.flat[:0]
	b.stats = b.stats[:0]
}

// Label names a block created by NewBlock.
type Label uint32

// NewBlock creates a new empty block and returns its label. The block
// becomes the current emission target.
func (b *Builder) NewBlock() Label {
	if n := len(b.program.Blocks); n < cap(b.program.Blocks) {
		b.program.Blocks = b.program.Blocks[:n+1]
		b.program.Blocks[n] = Block{}
	} else {
		b.program.Blocks = append(b.program.Blocks, Block{})
	}
	b.stats = append(b.stats, BlockStats{})
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
	b.sealed = int(l) == b.last && b.flat[len(b.flat)-1].Op.IsControl()
}

// Emit appends a raw instruction to the current block: validated (the
// checks are Program.Validate's), pre-decoded and counted in the block's
// stats on the spot. It is the single hottest call in widget generation,
// entered once per generated instruction through the Op3/Op2/immediate
// wrappers. The first failure is latched and reported by Build; whatever
// is emitted after it is dropped. A Target on an instruction that takes
// none is dropped too.
func (b *Builder) Emit(ins Instr) {
	op := ins.Op
	meta := isa.MetaOf(op)
	if b.current < 0 || b.sealed || b.err != nil || meta&isa.MetaValid == 0 ||
		ins.Dst >= meta.LimDst() || ins.A >= meta.LimA() || ins.B >= meta.LimB() {
		b.emitInvalid(ins)
		return
	}
	control := meta&isa.MetaControl != 0
	target := ins.Target
	if !control || op == isa.OpHalt {
		target = 0
	}
	class := meta.Class()
	// Target is resolved from Aux (the target block's index) by Build,
	// when every block's start is known.
	b.flat = append(b.flat, FlatInstr{Imm: ins.Imm, Aux: target, Op: op, Class: class, Dst: ins.Dst, A: ins.A, B: ins.B})
	s := &b.stats[b.current]
	s.Len++
	s.Tally[class]++
	b.sealed = control
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
	n := b.stats[b.current].Len
	switch meta := isa.MetaOf(ins.Op); {
	case meta&isa.MetaValid == 0:
		b.fail(fmt.Errorf("%w: block %d instr %d (op=%d)", ErrBadOpcode, b.current, n, ins.Op))
	case b.sealed:
		b.fail(fmt.Errorf("%w: block %d instr %d (%s)",
			ErrMisplacedControl, b.current, n-1, b.flat[len(b.flat)-1].Op))
	default:
		b.fail(fmt.Errorf("%w: block %d instr %d (%s)", ErrBadRegister, b.current, n, ins.Op))
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

// finish completes the program Emit has been writing: it resolves every
// branch target to a flat index (block starts are only known now), checks
// what cannot be checked per instruction — size limits, the memory
// declaration, target ranges, halt reachability — and publishes the flat
// stream and stats. With fillBlocks it also carves the block-shaped copy
// of the instructions that inspection and serialization read. Together
// with Emit's checks these are exactly Program.Validate's, so BuildInto
// need not run a second sweep on the hot generation path; Build still runs
// the canonical Validate afterwards, which keeps every cold-path Build in
// the test suite doubling as a consistency oracle for this split pass.
func (b *Builder) finish(fillBlocks bool) error {
	p := &b.program
	p.Stats, p.Flat = nil, nil
	nb := len(p.Blocks)
	if nb == 0 {
		return ErrNoBlocks
	}
	flat, stats := b.flat, b.stats
	if nb > MaxBlocks || len(flat) > MaxTotalStatic {
		return ErrTooLarge
	}
	if !isPow2(p.MemSize) || p.MemSize < MinMemSize || p.MemSize > MaxMemSize {
		return fmt.Errorf("%w: %d", ErrBadMemSize, p.MemSize)
	}

	if cap(b.starts) < nb {
		b.starts = make([]uint32, nb)
	}
	starts := b.starts[:nb]
	off := uint32(0)
	for bi := range stats {
		if stats[bi].Len > MaxBlockInstrs {
			return fmt.Errorf("%w: block %d has %d instructions", ErrTooLarge, bi, stats[bi].Len)
		}
		starts[bi] = off
		off += stats[bi].Len
	}

	// Control instructions are block terminators (Emit refuses anything
	// after one), so the terminators are all there is to resolve.
	haveHalt := false
	var term isa.Opcode
	for bi := range stats {
		term = isa.OpInvalid
		if n := stats[bi].Len; n > 0 {
			fi := &flat[starts[bi]+n-1]
			if term = fi.Op; term == isa.OpHalt {
				haveHalt = true
			} else if term.IsControl() {
				if int(fi.Aux) >= nb {
					return fmt.Errorf("%w: block %d -> %d (have %d blocks)", ErrBadTarget, bi, fi.Aux, nb)
				}
				fi.Target = starts[fi.Aux]
			}
		}
	}
	// The last block must not fall through off the end of the program, not
	// even conditionally (see Validate).
	if !term.IsControl() {
		return fmt.Errorf("%w: last block falls through", ErrNoHalt)
	}
	if term != isa.OpHalt && term != isa.OpJmp {
		return fmt.Errorf("%w: last block may fall through (%s terminator)", ErrNoHalt, term)
	}
	if !haveHalt {
		return ErrNoHalt
	}

	if fillBlocks {
		if cap(b.arena) < len(flat) {
			b.arena = make([]Instr, len(flat))
		}
		arena := b.arena[:len(flat)]
		for i := range flat {
			fi := &flat[i]
			arena[i] = Instr{Op: fi.Op, Dst: fi.Dst, A: fi.A, B: fi.B, Imm: fi.Imm, Target: fi.Aux}
		}
		for bi := range p.Blocks {
			end := starts[bi] + stats[bi].Len
			p.Blocks[bi].Instrs = arena[starts[bi]:end:end]
		}
	} else {
		// Clear any arena view left by an earlier Build over this Blocks
		// slice: a stale one would alias instructions of the wrong program.
		for bi := range p.Blocks {
			p.Blocks[bi].Instrs = nil
		}
	}
	p.Stats = stats
	p.Flat = flat
	return nil
}

// Build validates and returns the constructed program. The returned
// program shares the builder's storage: it stays valid until the next
// Reset, after which the builder may be used again (reusing that
// storage). Callers that never Reset can treat the program as immutable
// forever, so existing single-shot uses are unaffected.
func (b *Builder) Build() (*Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	if err := b.finish(true); err != nil {
		return nil, err
	}
	p := b.program
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// BuildInto is Build for reusable-program callers: it validates the
// constructed program and stores it in *out, overwriting the previous
// contents. Combined with Reset it lets a generation loop reuse one
// Program value (and the builder's storage) with zero steady-state
// allocation. Validation happens in Emit and finish (each instruction is
// touched once); Build additionally re-runs the canonical Validate, pinning
// the two paths to each other.
func (b *Builder) BuildInto(out *Program) error {
	if b.err != nil {
		return b.err
	}
	if err := b.finish(true); err != nil {
		return err
	}
	*out = b.program
	return nil
}

// BuildFlatInto is BuildInto for consumers that execute the program
// rather than inspect it: the per-block Instrs views are left empty and
// only the pre-decoded Flat stream and Stats are produced. Validation is
// identical to BuildInto, and the VM's trusted-load path and the JIT
// consume exactly Flat+Stats, so the generation hot loop skips carving a
// second, block-shaped copy of every instruction it will never read.
func (b *Builder) BuildFlatInto(out *Program) error {
	if b.err != nil {
		return b.err
	}
	if err := b.finish(false); err != nil {
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
