// Package prog defines the widget program: one instruction record, one
// program shape. A Program is every instruction of every basic block in
// one slice, a block table that cuts that slice into straight-line blocks
// connected by block-indexed control flow, and a scratch-memory
// declaration. The generator writes it once (Builder) and the assembler,
// the interpreter, the native compiler and the test oracle all read it in
// place: there is no second, decoded form. The package also provides
// structural validation (what makes a program safe to execute without
// per-instruction bound checks) and a compact binary serialization (used
// for widget pools and the CLI).
package prog

import (
	"errors"
	"fmt"

	"hashcore/internal/isa"
)

// Limits on program shape. These are deliberately generous relative to what
// the generator produces, but bounded so adversarial inputs cannot make the
// VM allocate unreasonable state.
const (
	MaxBlocks      = 1 << 20
	MaxBlockInstrs = 1 << 16
	MinMemSize     = 4 << 10   // 4 KiB
	MaxMemSize     = 256 << 20 // 256 MiB
	DefaultMemSize = 1 << 20   // 1 MiB
	MaxTotalStatic = 1 << 22   // static instructions across all blocks
)

// Instr is a single instruction. Operand meaning depends on Op (see
// isa.Opcode documentation): Dst/A/B index registers in the files given by
// Op.Operands(), Imm is the immediate (displacement for memory ops), and
// Target is the destination block index of a branch or jump — zero on
// every other instruction, halt included.
//
// PC and Class are derived: Class is Op.ClassOf(), and PC is the index in
// Program.Code of the first instruction of block Target (zero wherever
// Target is). Builder fills them, whatever the caller put there, and
// Validate checks them, so readers never recompute either.
//
// The fields are ordered widest first, so the record packs into 24 bytes
// and Op, Class, Dst, A, B share one aligned 8-byte word (internal/jit
// reads them with one load and asserts that where it does).
type Instr struct {
	Imm       int64
	PC        uint32
	Target    uint32
	Op        isa.Opcode
	Class     isa.Class
	Dst, A, B uint8
}

// Block is one row of a program's block table: where the basic block's
// instructions lie in Program.Code, and how many of them fall in each
// resource class (indexed by isa.Class) — what lets an engine account a
// whole block in O(1) instead of counting per retired instruction. A block
// is zero or more non-control instructions optionally terminated by one
// control instruction; without a terminator it falls through to the next
// block.
type Block struct {
	Start, Len uint32
	Tally      [isa.NumClasses]uint32
}

// Program is a complete widget. Code holds the instructions of all blocks
// in block order, Blocks cuts it up (block i is Code[Start:Start+Len], and
// the blocks tile Code without gaps), and execution starts at block 0.
// MemSize must be a power of two in [MinMemSize, MaxMemSize]; MemSeed
// deterministically defines the scratch memory contents. A program built
// through a reused Builder aliases the builder's storage until its next
// Reset.
type Program struct {
	Code    []Instr
	Blocks  []Block
	MemSize int
	MemSeed uint64
}

// Instrs returns the instructions of block bi, a sub-slice of p.Code.
func (p *Program) Instrs(bi int) []Instr {
	b := &p.Blocks[bi]
	return p.Code[b.Start : b.Start+b.Len : b.Start+b.Len]
}

// NumInstrs returns the total static instruction count.
func (p *Program) NumInstrs() int { return len(p.Code) }

// Validation errors.
var (
	ErrNoBlocks         = errors.New("prog: program has no blocks")
	ErrTooLarge         = errors.New("prog: program exceeds size limits")
	ErrBadMemSize       = errors.New("prog: memory size must be a power of two within limits")
	ErrMisplacedControl = errors.New("prog: control instruction not at end of block")
	ErrBadTarget        = errors.New("prog: branch target out of range")
	ErrBadOpcode        = errors.New("prog: invalid opcode")
	ErrBadRegister      = errors.New("prog: register index out of range")
	ErrNoHalt           = errors.New("prog: no reachable halt instruction")
	ErrBadDerived       = errors.New("prog: block table or derived fields disagree with the instructions")
)

// Validate checks the structural well-formedness of p in one sweep: the
// block table tiles Code and carries exact tallies, every opcode is valid,
// register indices are in range, control instructions end their blocks and
// target existing blocks, Class and PC are what Op and Target imply, the
// memory declaration is legal, and a halt exists. A validated program can
// be executed without any per-instruction bound check failing, and every
// derived field in it can be trusted.
func (p *Program) Validate() error {
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
	haveHalt := false
	term := isa.OpInvalid // the newest block's terminator, if it has one
	next := uint32(0)     // where the next block must start
	for bi := range p.Blocks {
		b := &p.Blocks[bi]
		if b.Len > MaxBlockInstrs {
			return fmt.Errorf("%w: block %d has %d instructions", ErrTooLarge, bi, b.Len)
		}
		if b.Start != next || int(b.Len) > len(p.Code)-int(next) {
			return fmt.Errorf("%w: block %d spans [%d,+%d), want start %d within %d",
				ErrBadDerived, bi, b.Start, b.Len, next, len(p.Code))
		}
		next += b.Len
		term = isa.OpInvalid
		var tally [isa.NumClasses]uint32
		for ii, ins := range p.Code[b.Start:next] {
			meta := isa.MetaOf(ins.Op)
			if meta&isa.MetaValid == 0 {
				return fmt.Errorf("%w: block %d instr %d (op=%d)", ErrBadOpcode, bi, ii, ins.Op)
			}
			control := meta&isa.MetaControl != 0
			if control && ii != int(b.Len)-1 {
				return fmt.Errorf("%w: block %d instr %d (%s)", ErrMisplacedControl, bi, ii, ins.Op)
			}
			if ins.Dst >= meta.LimDst() || ins.A >= meta.LimA() || ins.B >= meta.LimB() {
				return fmt.Errorf("%w: block %d instr %d (%s)", ErrBadRegister, bi, ii, ins.Op)
			}
			pc := uint32(0)
			if takesTarget(ins.Op, meta) {
				if int(ins.Target) >= nb {
					return fmt.Errorf("%w: block %d -> %d (have %d blocks)", ErrBadTarget, bi, ins.Target, nb)
				}
				// A forward target's Start is checked when the sweep gets there.
				pc = p.Blocks[ins.Target].Start
			} else if ins.Target != 0 {
				return fmt.Errorf("%w: block %d instr %d (%s takes no target, has %d)",
					ErrBadTarget, bi, ii, ins.Op, ins.Target)
			}
			if ins.Class != meta.Class() || ins.PC != pc {
				return fmt.Errorf("%w: block %d instr %d (%s): class %d pc %d, want %d and %d",
					ErrBadDerived, bi, ii, ins.Op, ins.Class, ins.PC, meta.Class(), pc)
			}
			if control {
				term = ins.Op
				haveHalt = haveHalt || ins.Op == isa.OpHalt
			}
			tally[meta.Class()]++
		}
		if b.Tally != tally {
			return fmt.Errorf("%w: block %d tally %v, want %v", ErrBadDerived, bi, b.Tally, tally)
		}
	}
	if int(next) != len(p.Code) {
		return fmt.Errorf("%w: blocks cover %d of %d instructions", ErrBadDerived, next, len(p.Code))
	}
	return checkHalts(term, haveHalt)
}

// takesTarget reports whether op (whose table entry is meta) transfers to
// a block: every control instruction but halt.
func takesTarget(op isa.Opcode, meta isa.OpMeta) bool {
	return meta&isa.MetaControl != 0 && op != isa.OpHalt
}

// checkHalts is the end-of-program rule Validate and Builder share. The
// last block (its terminator is lastTerm, OpInvalid if it has none) must
// not fall through off the end of the program — not even conditionally: a
// last block terminated by a conditional branch would fall off the end
// whenever the branch is not taken, so only the unconditional terminators
// (halt, jmp) are acceptable. And some block must halt.
func checkHalts(lastTerm isa.Opcode, haveHalt bool) error {
	switch {
	case lastTerm == isa.OpInvalid:
		return fmt.Errorf("%w: last block falls through", ErrNoHalt)
	case lastTerm != isa.OpHalt && lastTerm != isa.OpJmp:
		return fmt.Errorf("%w: last block may fall through (%s terminator)", ErrNoHalt, lastTerm)
	case !haveHalt:
		return ErrNoHalt
	}
	return nil
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }
