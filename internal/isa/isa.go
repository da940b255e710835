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
const (
	// FuseBase is the first fused opcode value.
	FuseBase Opcode = 64

	OpFuseCmpLTBeq Opcode = 64 // cmplt d,a,b ; beq x,y -> T
	OpFuseCmpLTBne Opcode = 65 // cmplt d,a,b ; bne x,y -> T
	OpFuseCmpEQBeq Opcode = 66 // cmpeq d,a,b ; beq x,y -> T
	OpFuseCmpEQBne Opcode = 67 // cmpeq d,a,b ; bne x,y -> T
	OpFuseAddIBeq  Opcode = 68 // addi d,a,imm ; beq x,y -> T
	OpFuseAddIBne  Opcode = 69 // addi d,a,imm ; bne x,y -> T
	OpFuseMovIAdd  Opcode = 70 // movi m,imm ; add d,a,b
	OpFuseMovISub  Opcode = 71 // movi m,imm ; sub d,a,b
	OpFuseMovIXor  Opcode = 72 // movi m,imm ; xor d,a,b
	OpFuseMovIAnd  Opcode = 73 // movi m,imm ; and d,a,b
	OpFuseMovIOr   Opcode = 74 // movi m,imm ; or  d,a,b
	OpFuseAddILoad Opcode = 75 // addi d,a,imm ; load d2 = mem[a2 + disp]
	OpFuseAddIStor Opcode = 76 // addi d,a,imm ; store mem[a2 + disp] = b2
	OpFuseMulAdd   Opcode = 77 // mul d,a,b ; add d2,a2,b2
	OpFuseFMulFAdd Opcode = 78 // fmul fd,fa,fb ; fadd fd2,fa2,fb2
	OpFuseRorAnd   Opcode = 79 // ror d,a,b ; and d2,a2,b2 (diamond condition prefix)

	// The x+jmp family: every non-control opcode fuses with a following
	// unconditional jump (generated branch-diamond arms always end with
	// one). FuseJmpBase + the family's index below. The encoding is
	// uniform: the first half keeps its normal dst/a/b/imm fields and the
	// jump's target block lands in target.
	FuseJmpBase Opcode = 80

	OpFuseAddJmp    Opcode = 80
	OpFuseSubJmp    Opcode = 81
	OpFuseAndJmp    Opcode = 82
	OpFuseOrJmp     Opcode = 83
	OpFuseXorJmp    Opcode = 84
	OpFuseShlJmp    Opcode = 85
	OpFuseShrJmp    Opcode = 86
	OpFuseRorJmp    Opcode = 87
	OpFuseCmpLTJmp  Opcode = 88
	OpFuseCmpEQJmp  Opcode = 89
	OpFuseMovJmp    Opcode = 90
	OpFuseMovIJmp   Opcode = 91
	OpFuseAddIJmp   Opcode = 92
	OpFuseMulJmp    Opcode = 93
	OpFuseMulHJmp   Opcode = 94
	OpFuseFAddJmp   Opcode = 95
	OpFuseFSubJmp   Opcode = 96
	OpFuseFMulJmp   Opcode = 97
	OpFuseFDivJmp   Opcode = 98
	OpFuseFSqrtJmp  Opcode = 99
	OpFuseFMovJmp   Opcode = 100
	OpFuseFCvtJmp   Opcode = 101
	OpFuseFToIJmp   Opcode = 102
	OpFuseLoadJmp   Opcode = 103
	OpFuseFLoadJmp  Opcode = 104
	OpFuseStoreJmp  Opcode = 105
	OpFuseFStoreJmp Opcode = 106
	OpFuseVAddJmp   Opcode = 107
	OpFuseVXorJmp   Opcode = 108
	OpFuseVMulJmp   Opcode = 109
	OpFuseVBcastJmp Opcode = 110
	OpFuseVRedJmp   Opcode = 111

	fuseJmpEnd Opcode = 112 // one past the last x+jmp opcode

	// Generic ALU pair family: the three highest-weight integer-ALU filler
	// opcodes fused pairwise ({add,sub,xor} x {add,sub,xor}), covering the
	// most frequent adjacencies inside straight-line filler runs. Encoding
	// matches mul+add: first op in dst/a/b, second packed into aux.
	OpFuseAddAdd Opcode = 112
	OpFuseAddSub Opcode = 113
	OpFuseAddXor Opcode = 114
	OpFuseSubAdd Opcode = 115
	OpFuseSubSub Opcode = 116
	OpFuseSubXor Opcode = 117
	OpFuseXorAdd Opcode = 118
	OpFuseXorSub Opcode = 119
	OpFuseXorXor Opcode = 120

	fuseEnd Opcode = 121 // one past the last fused opcode
)

// IsFusedJmp reports whether op is an x+jmp superinstruction.
func (op Opcode) IsFusedJmp() bool { return op >= FuseJmpBase && op < fuseJmpEnd }

// fusePairs maps each fused opcode to the architectural pair it replaces.
// This table is the single source of truth for what fuses: Fuse and
// FuseParts are both derived from it.
var fusePairs = [...]struct {
	fused, first, second Opcode
}{
	{OpFuseCmpLTBeq, OpCmpLT, OpBeq},
	{OpFuseCmpLTBne, OpCmpLT, OpBne},
	{OpFuseCmpEQBeq, OpCmpEQ, OpBeq},
	{OpFuseCmpEQBne, OpCmpEQ, OpBne},
	{OpFuseAddIBeq, OpAddI, OpBeq},
	{OpFuseAddIBne, OpAddI, OpBne},
	{OpFuseMovIAdd, OpMovI, OpAdd},
	{OpFuseMovISub, OpMovI, OpSub},
	{OpFuseMovIXor, OpMovI, OpXor},
	{OpFuseMovIAnd, OpMovI, OpAnd},
	{OpFuseMovIOr, OpMovI, OpOr},
	{OpFuseAddILoad, OpAddI, OpLoad},
	{OpFuseAddIStor, OpAddI, OpStore},
	{OpFuseMulAdd, OpMul, OpAdd},
	{OpFuseFMulFAdd, OpFMul, OpFAdd},
	{OpFuseRorAnd, OpRor, OpAnd},

	{OpFuseAddJmp, OpAdd, OpJmp},
	{OpFuseSubJmp, OpSub, OpJmp},
	{OpFuseAndJmp, OpAnd, OpJmp},
	{OpFuseOrJmp, OpOr, OpJmp},
	{OpFuseXorJmp, OpXor, OpJmp},
	{OpFuseShlJmp, OpShl, OpJmp},
	{OpFuseShrJmp, OpShr, OpJmp},
	{OpFuseRorJmp, OpRor, OpJmp},
	{OpFuseCmpLTJmp, OpCmpLT, OpJmp},
	{OpFuseCmpEQJmp, OpCmpEQ, OpJmp},
	{OpFuseMovJmp, OpMov, OpJmp},
	{OpFuseMovIJmp, OpMovI, OpJmp},
	{OpFuseAddIJmp, OpAddI, OpJmp},
	{OpFuseMulJmp, OpMul, OpJmp},
	{OpFuseMulHJmp, OpMulH, OpJmp},
	{OpFuseFAddJmp, OpFAdd, OpJmp},
	{OpFuseFSubJmp, OpFSub, OpJmp},
	{OpFuseFMulJmp, OpFMul, OpJmp},
	{OpFuseFDivJmp, OpFDiv, OpJmp},
	{OpFuseFSqrtJmp, OpFSqrt, OpJmp},
	{OpFuseFMovJmp, OpFMov, OpJmp},
	{OpFuseFCvtJmp, OpFCvt, OpJmp},
	{OpFuseFToIJmp, OpFToI, OpJmp},
	{OpFuseLoadJmp, OpLoad, OpJmp},
	{OpFuseFLoadJmp, OpFLoad, OpJmp},
	{OpFuseStoreJmp, OpStore, OpJmp},
	{OpFuseFStoreJmp, OpFStore, OpJmp},
	{OpFuseVAddJmp, OpVAdd, OpJmp},
	{OpFuseVXorJmp, OpVXor, OpJmp},
	{OpFuseVMulJmp, OpVMul, OpJmp},
	{OpFuseVBcastJmp, OpVBcast, OpJmp},
	{OpFuseVRedJmp, OpVRed, OpJmp},

	{OpFuseAddAdd, OpAdd, OpAdd},
	{OpFuseAddSub, OpAdd, OpSub},
	{OpFuseAddXor, OpAdd, OpXor},
	{OpFuseSubAdd, OpSub, OpAdd},
	{OpFuseSubSub, OpSub, OpSub},
	{OpFuseSubXor, OpSub, OpXor},
	{OpFuseXorAdd, OpXor, OpAdd},
	{OpFuseXorSub, OpXor, OpSub},
	{OpFuseXorXor, OpXor, OpXor},
}

// fuseLUT is the dense pair -> fused-opcode lookup used by the VM's load-time
// fuser (architectural opcodes are < FuseBase, so first*FuseBase+second fits).
var fuseLUT = func() [int(FuseBase) * int(FuseBase)]Opcode {
	var t [int(FuseBase) * int(FuseBase)]Opcode
	for _, p := range fusePairs {
		t[int(p.first)*int(FuseBase)+int(p.second)] = p.fused
	}
	return t
}()

// fuseInfo maps a fused opcode to its halves and mnemonic.
var fuseInfo = func() [fuseEnd]struct {
	first, second Opcode
	name          string
} {
	var t [fuseEnd]struct {
		first, second Opcode
		name          string
	}
	for _, p := range fusePairs {
		t[p.fused].first = p.first
		t[p.fused].second = p.second
		t[p.fused].name = opcodes[p.first].name + "." + opcodes[p.second].name
	}
	return t
}()

// IsFused reports whether op is a fused superinstruction.
func (op Opcode) IsFused() bool { return op >= FuseBase && op < fuseEnd && fuseInfo[op].first != 0 }

// Fuse returns the fused superinstruction replacing the adjacent pair
// (first, second), if the pair is fusible by opcode. Callers may impose
// additional operand constraints (the VM does, for immediate ranges).
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
	return fuseInfo[op].first, fuseInfo[op].second, true
}

// opcodeInfo captures static properties of an opcode.
type opcodeInfo struct {
	name  string
	class Class
}

// opcodes is the opcode metadata table; absent entries are invalid opcodes.
var opcodes = map[Opcode]opcodeInfo{
	OpAdd:   {"add", ClassIntALU},
	OpSub:   {"sub", ClassIntALU},
	OpAnd:   {"and", ClassIntALU},
	OpOr:    {"or", ClassIntALU},
	OpXor:   {"xor", ClassIntALU},
	OpShl:   {"shl", ClassIntALU},
	OpShr:   {"shr", ClassIntALU},
	OpRor:   {"ror", ClassIntALU},
	OpCmpLT: {"cmplt", ClassIntALU},
	OpCmpEQ: {"cmpeq", ClassIntALU},
	OpMov:   {"mov", ClassIntALU},
	OpMovI:  {"movi", ClassIntALU},
	OpAddI:  {"addi", ClassIntALU},

	OpMul:  {"mul", ClassIntMul},
	OpMulH: {"mulh", ClassIntMul},

	OpFAdd:  {"fadd", ClassFPALU},
	OpFSub:  {"fsub", ClassFPALU},
	OpFMul:  {"fmul", ClassFPALU},
	OpFDiv:  {"fdiv", ClassFPALU},
	OpFSqrt: {"fsqrt", ClassFPALU},
	OpFMov:  {"fmov", ClassFPALU},
	OpFCvt:  {"fcvt", ClassFPALU},
	OpFToI:  {"ftoi", ClassFPALU},

	OpLoad:   {"load", ClassLoad},
	OpFLoad:  {"fload", ClassLoad},
	OpStore:  {"store", ClassStore},
	OpFStore: {"fstore", ClassStore},

	OpBeq:  {"beq", ClassBranch},
	OpBne:  {"bne", ClassBranch},
	OpBlt:  {"blt", ClassBranch},
	OpBge:  {"bge", ClassBranch},
	OpJmp:  {"jmp", ClassBranch},
	OpHalt: {"halt", ClassBranch},

	OpVAdd:   {"vadd", ClassVector},
	OpVXor:   {"vxor", ClassVector},
	OpVMul:   {"vmul", ClassVector},
	OpVBcast: {"vbcast", ClassVector},
	OpVRed:   {"vred", ClassVector},
}

// mnemonics maps assembly mnemonics back to opcodes (built once, immutable
// afterwards; safe for concurrent reads).
var mnemonics = func() map[string]Opcode {
	m := make(map[string]Opcode, len(opcodes))
	for op, info := range opcodes {
		m[info.name] = op
	}
	return m
}()

// classTable is the dense opcode -> class table backing ClassOf. The map is
// the source of truth; the array keeps the VM's decode loop (one ClassOf per
// decoded instruction) free of map-hashing overhead.
var classTable = func() [256]Class {
	var t [256]Class
	for op, info := range opcodes {
		t[op] = info.class
	}
	return t
}()

// validTable is the dense opcode -> validity table backing Valid; like
// classTable it exists so per-instruction validation passes avoid map
// lookups (Validate runs over every instruction of every generated widget,
// once per hash).
var validTable = func() [256]bool {
	var t [256]bool
	for op := range opcodes {
		t[op] = true
	}
	return t
}()

// Valid reports whether op is a defined architectural opcode. Fused
// superinstructions are deliberately NOT valid: they exist only inside the
// VM's decoded code and must never appear in a serialized program.
func (op Opcode) Valid() bool {
	return validTable[op]
}

// OpMeta packs every per-opcode fact a validation sweep needs into one
// word, so hot per-instruction loops (prog.Builder's Emit runs once per
// generated instruction per hash) pay a single table load instead of
// separate Valid/IsControl/ClassOf/OperandLimits lookups. Layout: bytes
// 0-2 hold the exclusive dst/a/b operand bounds, byte 3 the class, bit 32
// validity and bit 33 the control-flow flag.
type OpMeta uint64

// OpMeta flag bits.
const (
	MetaValid   OpMeta = 1 << 32
	MetaControl OpMeta = 1 << 33
)

// LimDst returns the exclusive upper bound for the dst operand index.
func (m OpMeta) LimDst() uint8 { return uint8(m) }

// LimA returns the exclusive upper bound for the a operand index.
func (m OpMeta) LimA() uint8 { return uint8(m >> 8) }

// LimB returns the exclusive upper bound for the b operand index.
func (m OpMeta) LimB() uint8 { return uint8(m >> 16) }

// Class returns the opcode's resource class (0 for invalid opcodes).
func (m OpMeta) Class() Class { return Class(uint8(m >> 24)) }

// metaTable is derived from the canonical predicates; TestOpMetaMatches
// pins the packing to them for every possible opcode byte.
var metaTable = func() [256]OpMeta {
	var t [256]OpMeta
	for i := 0; i < 256; i++ {
		op := Opcode(i)
		if !op.Valid() {
			continue
		}
		dst, a, b := op.OperandLimits()
		m := OpMeta(dst) | OpMeta(a)<<8 | OpMeta(b)<<16 |
			OpMeta(op.ClassOf())<<24 | MetaValid
		if op.IsControl() {
			m |= MetaControl
		}
		t[i] = m
	}
	return t
}()

// MetaOf returns the packed metadata word for op (zero — invalid, no
// operands permitted — for undefined opcodes).
func MetaOf(op Opcode) OpMeta {
	return metaTable[op]
}

// String returns the assembly mnemonic for op. Fused superinstructions
// render as "first.second" (e.g. "cmplt.bne") for debugging output.
func (op Opcode) String() string {
	if info, ok := opcodes[op]; ok {
		return info.name
	}
	if op.IsFused() {
		return fuseInfo[op].name
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// ClassOf returns the resource class of op, or 0 for invalid opcodes.
// Fused superinstructions have no single class (they retire two
// instructions of possibly different classes) and report 0; per-class
// accounting for fused code comes from per-block tallies computed over the
// unfused instruction stream.
func (op Opcode) ClassOf() Class {
	return classTable[op]
}

// FromMnemonic returns the opcode for an assembly mnemonic.
func FromMnemonic(name string) (Opcode, bool) {
	op, ok := mnemonics[name]
	return op, ok
}

// IsControl reports whether op redirects or ends control flow (and so may
// only appear as a block terminator).
func (op Opcode) IsControl() bool {
	switch op {
	case OpBeq, OpBne, OpBlt, OpBge, OpJmp, OpHalt:
		return true
	default:
		return false
	}
}

// IsCondBranch reports whether op is a conditional branch.
func (op Opcode) IsCondBranch() bool {
	switch op {
	case OpBeq, OpBne, OpBlt, OpBge:
		return true
	default:
		return false
	}
}

// HasImm reports whether op uses its immediate operand.
func (op Opcode) HasImm() bool {
	switch op {
	case OpMovI, OpAddI, OpLoad, OpFLoad, OpStore, OpFStore:
		return true
	default:
		return false
	}
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

// Operands describes the register files of an opcode's dst, a and b
// operands (RegNone when unused).
func (op Opcode) Operands() (dst, a, b RegFile) {
	switch op {
	case OpAdd, OpSub, OpAnd, OpOr, OpXor, OpShl, OpShr, OpRor,
		OpCmpLT, OpCmpEQ, OpMul, OpMulH:
		return RegInt, RegInt, RegInt
	case OpMov:
		return RegInt, RegInt, RegNone
	case OpMovI:
		return RegInt, RegNone, RegNone
	case OpAddI:
		return RegInt, RegInt, RegNone
	case OpFAdd, OpFSub, OpFMul, OpFDiv:
		return RegFP, RegFP, RegFP
	case OpFSqrt, OpFMov:
		return RegFP, RegFP, RegNone
	case OpFCvt:
		return RegFP, RegInt, RegNone
	case OpFToI:
		return RegInt, RegFP, RegNone
	case OpLoad:
		return RegInt, RegInt, RegNone
	case OpFLoad:
		return RegFP, RegInt, RegNone
	case OpStore:
		return RegNone, RegInt, RegInt
	case OpFStore:
		return RegNone, RegInt, RegFP
	case OpBeq, OpBne, OpBlt, OpBge:
		return RegNone, RegInt, RegInt
	case OpJmp, OpHalt:
		return RegNone, RegNone, RegNone
	case OpVAdd, OpVXor, OpVMul:
		return RegVec, RegVec, RegVec
	case OpVBcast:
		return RegVec, RegInt, RegNone
	case OpVRed:
		return RegInt, RegVec, RegNone
	default:
		return RegNone, RegNone, RegNone
	}
}

// operandLimits is a dense per-opcode table of exclusive upper bounds for
// the dst/a/b operand indices (1 for unused operands, 0 for invalid
// opcodes). It exists so per-instruction validation avoids re-deriving
// register files through the Operands switch on every instruction of every
// generated widget.
var operandLimits = func() [256][3]uint8 {
	var t [256][3]uint8
	for op := range opcodes {
		dst, a, b := op.Operands()
		lim := func(f RegFile) uint8 {
			if f == RegNone {
				return 1
			}
			return uint8(f.RegCount())
		}
		t[op] = [3]uint8{lim(dst), lim(a), lim(b)}
	}
	return t
}()

// OperandLimits returns the exclusive upper bounds for op's dst, a and b
// register indices (1 for unused operands — they must be encoded as 0 —
// and 0 for invalid opcodes, rejecting everything).
func (op Opcode) OperandLimits() (dst, a, b uint8) {
	l := &operandLimits[op]
	return l[0], l[1], l[2]
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
