// Package jit compiles widget programs to native machine code.
//
// The paper's reference pipeline compiles each generated widget to native
// code through a C compiler; this package is the reproduction's analogue:
// a small amd64 code generator that lowers a program's basic blocks to
// machine code at load time, so the execution half of every hash runs at
// native speed instead of interpreter speed.
//
// Compilation is on the hash path too (every nonce is a fresh widget), so
// it is copy-and-patch: an encoder (compile_amd64.go) knows how each
// opcode lowers, runs once per process over every shape an instruction can
// take and leaves a table of byte templates; compiling a program is then a
// table lookup, a fixed-width copy and a few patched bytes per instruction
// (template_amd64.go). The encoder stays as the templates' generator, as
// the oracle the stamped code is tested against byte for byte, and as the
// direct lowering of the few opcodes too long for a template.
//
// The compiler's input is the widget itself: Compile reads a prog.Program's
// instructions and block table in place, as the interpreter does, and
// keeps no instruction record of its own.
//
// The package is deliberately narrow. It knows nothing about snapshots
// or result buffers: it compiles exactly the fast-path
// block-batched loop of vm.runUnobserved — per-block budget and snapshot
// guards, wholesale retirement accounting, straight-line opcode lowering —
// and *exits* to the caller whenever a block cannot be executed wholesale
// (budget or snapshot boundary in range, or a halt/truncation). The caller
// (internal/vm) runs those boundary blocks on its exact per-instruction
// slow path and re-enters the native code at the next block, which is what
// keeps truncation points, retired counts and snapshot bytes bit-identical
// to the interpreter.
//
// All communication happens through a Frame: a plain Go struct holding the
// full architectural register file, the live accounting counters, and the
// entry/exit plumbing. Generated code addresses the Frame through a single
// pinned pointer register, maps the 8 hottest widget integer registers
// onto amd64 registers, and calls nothing but its own two scratch-memory
// routines (one return address of stack, inside the trampoline's NOSPLIT
// allowance), so it is safe under the Go runtime's async preemption (an
// unknown PC is simply not a safe point) and needs only a minimal
// assembly trampoline to enter.
//
// Scratch memory is vm's sparse overlay (see vm.Machine): a
// one-bit-per-word written map plus a hash table of the words stored.
// Stores set the bit and insert or overwrite the word's slot; loads probe
// the table where the bit is set and otherwise compute the pristine word,
// rng.SplitMix64At(memSeed, index). Both live in two routines emitted once
// per program, which every load and store site calls, so the per-site code
// is no larger than a plain memory access was.
//
// On non-amd64 (or non-linux) platforms the package compiles to a stub
// whose Supported() reports false; callers keep the interpreter.
package jit

import (
	"errors"

	"hashcore/internal/isa"
)

// Status values the generated code leaves in Frame.Status on exit.
const (
	// StatusSlow: the block in Frame.NextBlock could not be retired
	// wholesale — it straddles a budget or snapshot boundary (including
	// the budget being exhausted outright); the caller must execute it
	// per-instruction, which reproduces truncation and snapshots exactly,
	// and re-enter at the block it reports next.
	StatusSlow = 0
	// StatusHalt: a halt instruction inside a wholesale-retired block
	// ended the run.
	StatusHalt = 1
)

// Frame is the shared state between the Go driver and generated code. The
// generated code addresses it via fixed byte offsets (asserted against
// unsafe.Offsetof at init), so the field order and types below are ABI.
//
// The order is chosen for encoding density, not readability: the frame
// pointer register is biased into the middle of the struct so that every
// field the generated code touches on a hot path — spilled integer
// registers, the whole FP file, and the per-block accounting scalars
// between them — is within a signed 8-bit displacement, shrinking most
// frame accesses from 8 to 5 bytes.
type Frame struct {
	// The architectural integer file. IntRegs[0:8] are shadowed by amd64
	// registers while native code runs (the prologue loads them, the
	// epilogue stores them back); r8..r15 live here permanently.
	IntRegs [isa.NumIntRegs]uint64

	// Hot accounting scalars, read inside the native loop. MaskAligned is
	// (memSize-1) &^ 7, folding the power-of-two wrap and the 8-byte
	// alignment into one AND; ExecsBase points at a []uint64 of per-block
	// fast-path execution counters (the jit twin of vm.blockMeta.execs).
	MaskAligned   uint64
	MaxInstr      uint64
	CondBranches  uint64
	TakenBranches uint64
	ExecsBase     uintptr

	// The FP and vector register files.
	FPRegs  [isa.NumFPRegs]uint64
	VecRegs [isa.NumVecRegs][isa.VecLanes]uint64

	// Cold state, touched only by the prologue/epilogue or the Go driver.
	// Table is the base address of vm's written-word table (loaded into a
	// register on entry). Retired and UntilSnap mirror vm.execState and
	// are register-shadowed while native code runs. Resume is the
	// absolute address of the block head to enter — the prologue jumps
	// through it, which is how the driver re-enters at an arbitrary block
	// after a slow-path boundary. NextBlock and Status report why the
	// code exited (see Status*).
	Table     uintptr
	Retired   uint64
	UntilSnap uint64
	Resume    uintptr
	NextBlock uint32
	Status    uint32

	// LimStart is prologue/epilogue scratch: the run-segment instruction
	// limit min(MaxInstr-Retired, UntilSnap, Headroom) captured on entry.
	// Retired and UntilSnap advance in lockstep (every retired instruction
	// decrements the snapshot countdown by one), so the generated code
	// tracks a single countdown register seeded from this minimum and the
	// epilogue reconstructs both counters from how far it fell.
	LimStart uint64

	// The sparse scratch memory, read only by the two shared memory
	// routines (so their displacement size is no per-site cost) and the
	// prologue. Written is the base address of vm's written map, one bit
	// per 8-byte word of the image; SeedGamma is memSeed +
	// rng.SplitMix64Gamma: the pristine word i is mix64(SeedGamma +
	// i*Gamma).
	//
	// The words a run stored live in vm's written-word table at Table:
	// 16-byte slots {key, value}, a power of two of them, key = Epoch | the
	// word index (Epoch is the run's epoch << 32; a slot whose key is below
	// it is empty). Word i's home slot is i*Gamma >> (64 - log2(slots)),
	// probing goes on linearly and wraps; TableShift is that shift less
	// four and TableMask (slots-1) << 4, so the home's byte offset is
	// (i*Gamma >> TableShift) & TableMask. The store routine counts its
	// inserts in Inserts and never grows the table: the prologue caps the
	// segment's countdown at Headroom (inserts left before the table is
	// half full), and a segment stores at most one word per instruction.
	Written    uintptr
	SeedGamma  uint64
	TableMask  uint64
	TableShift uint64
	Epoch      uint64
	Inserts    uint64
	Headroom   uint64
}

// Compilation limits. Programs beyond these bounds (far beyond anything
// the generator emits) are refused with ErrTooLarge rather than risking
// an oversized executable mapping.
const (
	maxInstrs = 1 << 22
	maxBlocks = 1 << 18
	// maxCodeBytes caps the executable mapping (~64 bytes/instr worst
	// case would still fit the generator's programs thousands of times
	// over).
	maxCodeBytes = 128 << 20
)

// ErrUnsupported is returned by Compile on platforms without a native
// backend.
var ErrUnsupported = errors.New("jit: native backend not supported on this platform")

// ErrTooLarge is returned when a program exceeds the compiler's bounds.
var ErrTooLarge = errors.New("jit: program too large to compile")
