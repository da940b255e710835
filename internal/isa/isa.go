// Package isa defines the synthetic instruction set that HashCore widgets
// are expressed in.
//
// The paper generates widgets as C programs compiled to native x86. A
// portable, stdlib-only reproduction cannot JIT pseudo-random x86, so this
// package defines a register machine whose instruction classes are exactly
// the computational-resource classes the paper's Table I allocates hash-seed
// noise to — integer ALU, integer multiply, floating-point ALU, loads,
// stores, and branches — plus a vector class covering the "vector
// processing units" the paper lists among the targeted structures.
//
// The machine has:
//   - 16 64-bit integer registers r0..r15
//   - 16 64-bit floating-point registers f0..f15
//   - 8 256-bit vector registers v0..v7 (4 x 64-bit lanes)
//   - a byte-addressable scratch memory (power-of-two size, masked
//     addressing, so every generated access is safe)
//
// Control flow is expressed at the basic-block level (see internal/prog):
// branch instructions name a target block, and only the last instruction of
// a block may be a control instruction.
//
// What an opcode IS — mnemonic, class, operand register files, whether it
// ends a block, branches conditionally or reads its immediate — is written
// down once, as a row of opTable; every predicate, the packed OpMeta word
// and the mnemonic lookup read that row. What an opcode DOES is defined by
// internal/vm's reference step. The fused superinstructions the VM's
// interpreter dispatches are a second, smaller table (fusePairs).
package isa

import "fmt"

// Register file sizes.
const (
	NumIntRegs = 16
	NumFPRegs  = 16
	NumVecRegs = 8
	VecLanes   = 4
)

// Class is an instruction resource class. The first six classes correspond
// one-to-one to the noise fields of the paper's Table I.
type Class uint8

// Instruction classes.
const (
	ClassIntALU Class = iota + 1
	ClassIntMul
	ClassFPALU
	ClassLoad
	ClassStore
	ClassBranch
	ClassVector
	numClasses
)

// NumClasses is one past the largest Class value. Arrays indexed directly
// by Class (per-class counters, budgets) use this as their length, which
// keeps the hot accounting paths free of map lookups.
const NumClasses = int(numClasses)

// Classes lists every class in a stable order (useful for iteration in
// profiles and reports).
var Classes = [...]Class{
	ClassIntALU, ClassIntMul, ClassFPALU, ClassLoad, ClassStore, ClassBranch, ClassVector,
}

// String returns the lower-case class mnemonic.
func (c Class) String() string {
	switch c {
	case ClassIntALU:
		return "intalu"
	case ClassIntMul:
		return "intmul"
	case ClassFPALU:
		return "fpalu"
	case ClassLoad:
		return "load"
	case ClassStore:
		return "store"
	case ClassBranch:
		return "branch"
	case ClassVector:
		return "vector"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// Opcode identifies an operation. Opcodes are stable across versions: they
// are serialized into widget binaries, so new opcodes must only ever be
// appended.
type Opcode uint8

// Opcodes are declared with explicit values: they form the binary widget
// encoding, so their numbering is part of the wire format and must never
// shift when the set is extended.
const (
	OpInvalid Opcode = 0

	// Integer ALU.
	OpAdd Opcode = 1 // dst = a + b
	OpSub Opcode = 2 // dst = a - b
	OpAnd Opcode = 3 // dst = a & b
	OpOr  Opcode = 4 // dst = a | b
	OpXor Opcode = 5 // dst = a ^ b
	OpShl Opcode = 6 // dst = a << (b & 63)
	OpShr Opcode = 7 // dst = a >> (b & 63)
	OpRor Opcode = 8 // dst = a rotated right by (b & 63)

	OpCmpLT Opcode = 9  // dst = (a < b) ? 1 : 0  (unsigned)
	OpCmpEQ Opcode = 10 // dst = (a == b) ? 1 : 0
	OpMov   Opcode = 11 // dst = a
	OpMovI  Opcode = 12 // dst = imm
	OpAddI  Opcode = 13 // dst = a + imm

	// Integer multiply unit.
	OpMul  Opcode = 16 // dst = low64(a * b)
	OpMulH Opcode = 17 // dst = high64(a * b) (unsigned)

	// Floating-point ALU. FP registers hold IEEE-754 float64; NaNs are
	// canonicalized after every operation for cross-platform determinism.
	OpFAdd  Opcode = 24 // fdst = fa + fb
	OpFSub  Opcode = 25 // fdst = fa - fb
	OpFMul  Opcode = 26 // fdst = fa * fb
	OpFDiv  Opcode = 27 // fdst = fa / fb
	OpFSqrt Opcode = 28 // fdst = sqrt(|fa|)
	OpFMov  Opcode = 29 // fdst = fa
	OpFCvt  Opcode = 30 // fdst = float64(int64(ra))
	OpFToI  Opcode = 31 // dst  = clamped int64(fa)

	// Memory. Addresses are (ra + imm) masked to the scratch size and
	// 8-byte aligned; values are little-endian uint64.
	OpLoad   Opcode = 40 // dst  = mem[ra + imm]
	OpFLoad  Opcode = 41 // fdst = mem[ra + imm] (as float64 bits, canonicalized)
	OpStore  Opcode = 42 // mem[ra + imm] = rb
	OpFStore Opcode = 43 // mem[ra + imm] = fb (bits)

	// Control flow. Target is a block index carried beside the opcode.
	OpBeq  Opcode = 48 // if ra == rb jump to target block
	OpBne  Opcode = 49 // if ra != rb jump
	OpBlt  Opcode = 50 // if ra <  rb (unsigned) jump
	OpBge  Opcode = 51 // if ra >= rb (unsigned) jump
	OpJmp  Opcode = 52 // unconditional jump
	OpHalt Opcode = 53 // stop execution

	// Vector unit: 4-lane 64-bit SIMD.
	OpVAdd   Opcode = 56 // vdst = va + vb (lane-wise)
	OpVXor   Opcode = 57 // vdst = va ^ vb
	OpVMul   Opcode = 58 // vdst = low64(va * vb) lane-wise
	OpVBcast Opcode = 59 // vdst = broadcast(ra)
	OpVRed   Opcode = 60 // dst  = xor-fold of va's lanes
)

// Fused superinstructions. These are execution-internal opcodes produced by
// the VM's peephole fuser for hot adjacent instruction pairs; they are NOT
// part of the widget wire format (Valid reports false), never appear in a
// prog.Program, and — unlike architectural opcodes — may be renumbered
// freely. They sit directly above the architectural opcode space so the
// interpreter's dispatch switch stays dense; if the architectural space
// ever grows past FuseBase, bump FuseBase.
//
// Each fused opcode retires as TWO architectural instructions (its class
// accounting is the sum of both halves' classes), and its semantics are
// exactly "first half, then second half" — fusion only removes dispatch
// overhead, never reorders or combines arithmetic.
//
// The set is kept by measurement: a pair is here because it reaches 1 % of
// the interpreter's dynamic dispatches on at least one workload profile
// (vm's TestFusedSetEarnsItsKeep holds every row to that, the nine ALU
// pairs below as one entry; DESIGN.md §9 has the table and the pairs that
// were dropped). A block's trailing
// unconditional jump needs no opcode at all: the VM records it as the
// block's successor.
const (
	// FuseBase is the first fused opcode value.
	FuseBase Opcode = 64

	OpFuseCmpLTBne Opcode = 64 // cmplt d,a,b ; bne x,y -> T (every branch diamond's condition)
	OpFuseRorAnd   Opcode = 65 // ror d,a,b ; and d2,a2,b2 (the diamond condition's prefix)

	// The three highest-weight integer-ALU filler opcodes fused pairwise
	// ({add,sub,xor} x {add,sub,xor}): the most frequent adjacencies inside
	// straight-line filler runs. One encoding serves all nine.
	OpFuseAddAdd Opcode = 66
	OpFuseAddSub Opcode = 67
	OpFuseAddXor Opcode = 68
	OpFuseSubAdd Opcode = 69
	OpFuseSubSub Opcode = 70
	OpFuseSubXor Opcode = 71
	OpFuseXorAdd Opcode = 72
	OpFuseXorSub Opcode = 73
	OpFuseXorXor Opcode = 74

	fuseEnd Opcode = 75 // one past the last fused opcode
)

// fusePairs lists, by fused opcode, the architectural pair it replaces.
// It is the single source of truth for what fuses: Fuse and FuseParts both
// read it.
var fusePairs = [fuseEnd - FuseBase][2]Opcode{
	OpFuseCmpLTBne - FuseBase: {OpCmpLT, OpBne},
	OpFuseRorAnd - FuseBase:   {OpRor, OpAnd},
	OpFuseAddAdd - FuseBase:   {OpAdd, OpAdd},
	OpFuseAddSub - FuseBase:   {OpAdd, OpSub},
	OpFuseAddXor - FuseBase:   {OpAdd, OpXor},
	OpFuseSubAdd - FuseBase:   {OpSub, OpAdd},
	OpFuseSubSub - FuseBase:   {OpSub, OpSub},
	OpFuseSubXor - FuseBase:   {OpSub, OpXor},
	OpFuseXorAdd - FuseBase:   {OpXor, OpAdd},
	OpFuseXorSub - FuseBase:   {OpXor, OpSub},
	OpFuseXorXor - FuseBase:   {OpXor, OpXor},
}

// fuseLUT is the dense pair -> fused-opcode lookup behind Fuse, which the
// VM's fuser asks about every adjacent pair of every widget it interprets
// (architectural opcodes are < FuseBase, so first*FuseBase+second fits).
var fuseLUT = func() (t [int(FuseBase) * int(FuseBase)]Opcode) {
	for i, p := range fusePairs {
		t[int(p[0])*int(FuseBase)+int(p[1])] = FuseBase + Opcode(i)
	}
	return t
}()

// IsFused reports whether op is a fused superinstruction.
func (op Opcode) IsFused() bool { return op >= FuseBase && op < fuseEnd }

// Fuse returns the fused superinstruction replacing the adjacent pair
// (first, second), if there is one.
func Fuse(first, second Opcode) (Opcode, bool) {
	if first >= FuseBase || second >= FuseBase {
		return OpInvalid, false
	}
	f := fuseLUT[int(first)*int(FuseBase)+int(second)]
	return f, f != OpInvalid
}

// FuseParts returns the architectural pair a fused opcode replaces.
func (op Opcode) FuseParts() (first, second Opcode, ok bool) {
	if !op.IsFused() {
		return OpInvalid, OpInvalid, false
	}
	p := fusePairs[op-FuseBase]
	return p[0], p[1], true
}

// RegFile identifies which register file an operand index refers to.
type RegFile uint8

// Register files.
const (
	RegNone RegFile = iota
	RegInt
	RegFP
	RegVec
)

// OpMeta packs every per-opcode fact into one word, so a per-instruction
// loop (prog.Validate's sweep) pays a single table load for all of them.
// Layout:
// bytes 0-2 hold the exclusive dst/a/b operand bounds, byte 3 the class,
// bits 32-35 the flags below and bits 40-45 the dst/a/b register files.
type OpMeta uint64

// OpMeta flag bits.
const (
	MetaValid   OpMeta = 1 << 32
	MetaControl OpMeta = 1 << 33 // redirects or ends control flow: may only end a block
	metaCond    OpMeta = 1 << 34 // conditional branch
	metaImm     OpMeta = 1 << 35 // uses its immediate operand
)

// LimDst returns the exclusive upper bound for the dst operand index.
func (m OpMeta) LimDst() uint8 { return uint8(m) }

// LimA returns the exclusive upper bound for the a operand index.
func (m OpMeta) LimA() uint8 { return uint8(m >> 8) }

// LimB returns the exclusive upper bound for the b operand index.
func (m OpMeta) LimB() uint8 { return uint8(m >> 16) }

// Class returns the opcode's resource class (0 for invalid opcodes).
func (m OpMeta) Class() Class { return Class(uint8(m >> 24)) }

// opRow is one architectural opcode's static description: its mnemonic
// and everything else, packed (see OpMeta).
type opRow struct {
	name string
	meta OpMeta
}

// row builds a table row from an opcode's class, the register files of its
// dst, a and b operands (RegNone when unused) and its flags. An unused
// operand has the bound 1: it must be encoded as 0.
func row(name string, class Class, dst, a, b RegFile, flags OpMeta) opRow {
	lim := func(f RegFile) OpMeta {
		if f == RegNone {
			return 1
		}
		return OpMeta(f.RegCount())
	}
	return opRow{name, lim(dst) | lim(a)<<8 | lim(b)<<16 | OpMeta(class)<<24 |
		OpMeta(dst)<<40 | OpMeta(a)<<42 | OpMeta(b)<<44 | MetaValid | flags}
}

// opTable is the one definition of the architectural opcodes' static
// properties; every predicate below, MetaOf and the mnemonic lookup read
// it. Rows of undefined (and fused) opcode values are zero: invalid, no
// class, every operand index rejected.
var opTable = [256]opRow{
	OpAdd:   row("add", ClassIntALU, RegInt, RegInt, RegInt, 0),
	OpSub:   row("sub", ClassIntALU, RegInt, RegInt, RegInt, 0),
	OpAnd:   row("and", ClassIntALU, RegInt, RegInt, RegInt, 0),
	OpOr:    row("or", ClassIntALU, RegInt, RegInt, RegInt, 0),
	OpXor:   row("xor", ClassIntALU, RegInt, RegInt, RegInt, 0),
	OpShl:   row("shl", ClassIntALU, RegInt, RegInt, RegInt, 0),
	OpShr:   row("shr", ClassIntALU, RegInt, RegInt, RegInt, 0),
	OpRor:   row("ror", ClassIntALU, RegInt, RegInt, RegInt, 0),
	OpCmpLT: row("cmplt", ClassIntALU, RegInt, RegInt, RegInt, 0),
	OpCmpEQ: row("cmpeq", ClassIntALU, RegInt, RegInt, RegInt, 0),
	OpMov:   row("mov", ClassIntALU, RegInt, RegInt, RegNone, 0),
	OpMovI:  row("movi", ClassIntALU, RegInt, RegNone, RegNone, metaImm),
	OpAddI:  row("addi", ClassIntALU, RegInt, RegInt, RegNone, metaImm),

	OpMul:  row("mul", ClassIntMul, RegInt, RegInt, RegInt, 0),
	OpMulH: row("mulh", ClassIntMul, RegInt, RegInt, RegInt, 0),

	OpFAdd:  row("fadd", ClassFPALU, RegFP, RegFP, RegFP, 0),
	OpFSub:  row("fsub", ClassFPALU, RegFP, RegFP, RegFP, 0),
	OpFMul:  row("fmul", ClassFPALU, RegFP, RegFP, RegFP, 0),
	OpFDiv:  row("fdiv", ClassFPALU, RegFP, RegFP, RegFP, 0),
	OpFSqrt: row("fsqrt", ClassFPALU, RegFP, RegFP, RegNone, 0),
	OpFMov:  row("fmov", ClassFPALU, RegFP, RegFP, RegNone, 0),
	OpFCvt:  row("fcvt", ClassFPALU, RegFP, RegInt, RegNone, 0),
	OpFToI:  row("ftoi", ClassFPALU, RegInt, RegFP, RegNone, 0),

	OpLoad:   row("load", ClassLoad, RegInt, RegInt, RegNone, metaImm),
	OpFLoad:  row("fload", ClassLoad, RegFP, RegInt, RegNone, metaImm),
	OpStore:  row("store", ClassStore, RegNone, RegInt, RegInt, metaImm),
	OpFStore: row("fstore", ClassStore, RegNone, RegInt, RegFP, metaImm),

	OpBeq:  row("beq", ClassBranch, RegNone, RegInt, RegInt, MetaControl|metaCond),
	OpBne:  row("bne", ClassBranch, RegNone, RegInt, RegInt, MetaControl|metaCond),
	OpBlt:  row("blt", ClassBranch, RegNone, RegInt, RegInt, MetaControl|metaCond),
	OpBge:  row("bge", ClassBranch, RegNone, RegInt, RegInt, MetaControl|metaCond),
	OpJmp:  row("jmp", ClassBranch, RegNone, RegNone, RegNone, MetaControl),
	OpHalt: row("halt", ClassBranch, RegNone, RegNone, RegNone, MetaControl),

	OpVAdd:   row("vadd", ClassVector, RegVec, RegVec, RegVec, 0),
	OpVXor:   row("vxor", ClassVector, RegVec, RegVec, RegVec, 0),
	OpVMul:   row("vmul", ClassVector, RegVec, RegVec, RegVec, 0),
	OpVBcast: row("vbcast", ClassVector, RegVec, RegInt, RegNone, 0),
	OpVRed:   row("vred", ClassVector, RegInt, RegVec, RegNone, 0),
}

// MetaOf returns the packed metadata word for op (zero — invalid, no
// operands permitted — for undefined opcodes).
func MetaOf(op Opcode) OpMeta { return opTable[op].meta }

// Valid reports whether op is a defined architectural opcode. Fused
// superinstructions are deliberately NOT valid: they exist only inside the
// VM's decoded code and must never appear in a serialized program.
func (op Opcode) Valid() bool { return opTable[op].meta&MetaValid != 0 }

// ClassOf returns the resource class of op, or 0 for invalid opcodes.
// Fused superinstructions have no single class (they retire two
// instructions of possibly different classes) and report 0; nothing that
// counts classes sees them (observers are shown the unfused program).
func (op Opcode) ClassOf() Class { return opTable[op].meta.Class() }

// IsControl reports whether op redirects or ends control flow (and so may
// only appear as a block terminator).
func (op Opcode) IsControl() bool { return opTable[op].meta&MetaControl != 0 }

// IsCondBranch reports whether op is a conditional branch.
func (op Opcode) IsCondBranch() bool { return opTable[op].meta&metaCond != 0 }

// HasImm reports whether op uses its immediate operand.
func (op Opcode) HasImm() bool { return opTable[op].meta&metaImm != 0 }

// Operands describes the register files of an opcode's dst, a and b
// operands (RegNone when unused).
func (op Opcode) Operands() (dst, a, b RegFile) { return opTable[op].meta.Files() }

// Files returns the register files of the dst, a and b operands (RegNone
// when unused).
func (m OpMeta) Files() (dst, a, b RegFile) {
	return RegFile(m >> 40 & 3), RegFile(m >> 42 & 3), RegFile(m >> 44 & 3)
}

// OperandLimits returns the exclusive upper bounds for op's dst, a and b
// register indices (1 for unused operands — they must be encoded as 0 —
// and 0 for invalid opcodes, rejecting everything).
func (op Opcode) OperandLimits() (dst, a, b uint8) {
	m := opTable[op].meta
	return m.LimDst(), m.LimA(), m.LimB()
}

// String returns the assembly mnemonic for op. Fused superinstructions
// render as "first.second" (e.g. "cmplt.bne") for debugging output.
func (op Opcode) String() string {
	if first, second, ok := op.FuseParts(); ok {
		return opTable[first].name + "." + opTable[second].name
	}
	if op.Valid() {
		return opTable[op].name
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// RegCount returns the number of registers in file f.
func (f RegFile) RegCount() int {
	switch f {
	case RegInt:
		return NumIntRegs
	case RegFP:
		return NumFPRegs
	case RegVec:
		return NumVecRegs
	default:
		return 0
	}
}

// Prefix returns the assembly register prefix for file f ("r", "f", "v").
func (f RegFile) Prefix() string {
	switch f {
	case RegInt:
		return "r"
	case RegFP:
		return "f"
	case RegVec:
		return "v"
	default:
		return "?"
	}
}
