//go:build amd64 && linux

// The amd64 code generator: the Compiler, its executable mapping, and the
// encoder — the functions that know how every piece of a program lowers,
// byte by byte. The encoder does not run per hash: template_amd64.go runs
// it once per process to build a table of byte templates and stamps
// programs from that table (its header says what is left to the encoder
// at hash time, and the tests hold the stamped code to the encoder's).
// One Compiler owns an emit scratch buffer and one executable mapping,
// both reused across Compile calls, so per-program compilation reaches a
// zero-allocation steady state (the production session compiles one fresh
// widget per hash).
//
// Code layout of a compiled program:
//
//	prologue            load mapped registers from the Frame, JMP [Resume]
//	load, store         the two shared scratch-memory routines (emitMemRoutines)
//	block 0 head+body   guards, wholesale accounting, lowered instructions
//	block 1 head+body   ... (blocks are contiguous, so a block that does
//	...                 not end in an unconditional transfer falls through
//	block N-1           physically into the next block's head)
//	slow tail           write NextBlock/Status=slow, JMP epilogue
//	slow stub per block undo the head's charge, name the block, JMP slow tail
//	epilogue            store mapped registers back, RET
//
// Register assignment while native code runs:
//
//	R15  Frame pointer (all unmapped state is addressed off it)
//	R14  written-word table base
//	R12  run-segment countdown (budget, snapshot, table headroom; see emitPrologue)
//	R13  per-block execution-counter base
//	RBX RBP RSI RDI R8 R9 R10 R11   the 8 most-referenced widget integer
//	                                registers of this program (chosen per
//	                                compile by static use count)
//	RAX RCX RDX, XMM0 XMM1          scratch
//
// The other 8 widget integer registers, the FP and vector files, and the
// remaining counters live in the Frame. The only calls the generated code
// makes are to its own two memory routines, which return at once; every
// inter-block branch is a rel32 resolved by a fixup pass.
package jit

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"syscall"
	"unsafe"

	"hashcore/internal/isa"
	"hashcore/internal/prog"
	"hashcore/internal/rng"
)

// Supported reports whether the native backend can run on this platform.
func Supported() bool { return true }

// canonicalNaN mirrors vm's single architecturally visible NaN pattern.
const canonicalNaN = 0x7ff8000000000000

// frameBias is added to the Frame's address to form the frame pointer
// register (see call_amd64.s, which hardcodes it): biasing into the
// middle of the struct puts the spilled integer registers, the hot
// accounting scalars and the whole FP file within a signed 8-bit
// displacement. All off* constants below are pre-biased.
const frameBias = 168

// Frame field offsets baked into generated code, relative to the biased
// frame pointer (asserted against the real struct layout below).
const (
	offIntRegs    = 0 - frameBias
	offMask       = offIntRegs + isa.NumIntRegs*8
	offMaxInstr   = offMask + 8
	offCond       = offMaxInstr + 8
	offTaken      = offCond + 8
	offExecsBase  = offTaken + 8
	offFPRegs     = offExecsBase + 8
	offVecRegs    = offFPRegs + isa.NumFPRegs*8
	offTable      = offVecRegs + isa.NumVecRegs*isa.VecLanes*8
	offRetired    = offTable + 8
	offUntilSnap  = offRetired + 8
	offResume     = offUntilSnap + 8
	offNextBlock  = offResume + 8
	offStatus     = offNextBlock + 4
	offLimStart   = offStatus + 4
	offWritten    = offLimStart + 8
	offSeedGamma  = offWritten + 8
	offTableMask  = offSeedGamma + 8
	offTableShift = offTableMask + 8
	offEpoch      = offTableShift + 8
	offInserts    = offEpoch + 8
	offHeadroom   = offInserts + 8
)

// prog.Instr as the stamp loop addresses it (stamp_amd64.s): go_asm.h
// carries field offsets only for types this package declares, but every
// constant of the package, so the offsets are spelled as constants.
const (
	instrImm    = unsafe.Offsetof(prog.Instr{}.Imm)
	instrTarget = unsafe.Offsetof(prog.Instr{}.Target)
	instrOp     = unsafe.Offsetof(prog.Instr{}.Op)
	instrDst    = unsafe.Offsetof(prog.Instr{}.Dst)
	instrA      = unsafe.Offsetof(prog.Instr{}.A)
	instrB      = unsafe.Offsetof(prog.Instr{}.B)
	instrSize   = unsafe.Sizeof(prog.Instr{})
)

func init() {
	// allocRegs and the stamp loop fetch an instruction's opcode and its
	// three operand bytes with one 8-byte load at &Instr.Op.
	if instrOp%8 != 0 || instrSize < instrOp+8 || instrDst != instrOp+2 || instrA != instrOp+3 || instrB != instrOp+4 {
		panic("jit: prog.Instr does not keep Op, Class, Dst, A, B in one aligned word")
	}
	if offFPRegs != 0 || frameBias != 168 {
		// call_amd64.s hardcodes the bias; the layout must keep the FP
		// file right at it.
		panic("jit: frame bias does not match the trampoline")
	}
	var f Frame
	check := func(name string, got uintptr, want int32) {
		if int32(got) != want+frameBias {
			panic(fmt.Sprintf("jit: Frame.%s at offset %d, generated code expects %d", name, got, want+frameBias))
		}
	}
	check("IntRegs", unsafe.Offsetof(f.IntRegs), offIntRegs)
	check("MaskAligned", unsafe.Offsetof(f.MaskAligned), offMask)
	check("MaxInstr", unsafe.Offsetof(f.MaxInstr), offMaxInstr)
	check("CondBranches", unsafe.Offsetof(f.CondBranches), offCond)
	check("TakenBranches", unsafe.Offsetof(f.TakenBranches), offTaken)
	check("ExecsBase", unsafe.Offsetof(f.ExecsBase), offExecsBase)
	check("FPRegs", unsafe.Offsetof(f.FPRegs), offFPRegs)
	check("VecRegs", unsafe.Offsetof(f.VecRegs), offVecRegs)
	check("Table", unsafe.Offsetof(f.Table), offTable)
	check("Retired", unsafe.Offsetof(f.Retired), offRetired)
	check("UntilSnap", unsafe.Offsetof(f.UntilSnap), offUntilSnap)
	check("Resume", unsafe.Offsetof(f.Resume), offResume)
	check("NextBlock", unsafe.Offsetof(f.NextBlock), offNextBlock)
	check("Status", unsafe.Offsetof(f.Status), offStatus)
	check("LimStart", unsafe.Offsetof(f.LimStart), offLimStart)
	check("Written", unsafe.Offsetof(f.Written), offWritten)
	check("SeedGamma", unsafe.Offsetof(f.SeedGamma), offSeedGamma)
	check("TableMask", unsafe.Offsetof(f.TableMask), offTableMask)
	check("TableShift", unsafe.Offsetof(f.TableShift), offTableShift)
	check("Epoch", unsafe.Offsetof(f.Epoch), offEpoch)
	check("Inserts", unsafe.Offsetof(f.Inserts), offInserts)
	check("Headroom", unsafe.Offsetof(f.Headroom), offHeadroom)
}

// amd64 register numbers (hardware encoding).
const (
	rAX = 0
	rCX = 1
	rDX = 2
	rBX = 3
	rBP = 5
	rSI = 6
	rDI = 7
	r8  = 8
	r9  = 9
	r10 = 10
	r11 = 11
	r12 = 12
	r13 = 13
	r14 = 14
	r15 = 15
)

// physPool is the set of amd64 registers available for widget integer
// registers. Which widget registers get them is decided per program by
// allocRegs: the widget ISA has 16 integer registers but the generator
// concentrates loop-carried state in a handful of them, and pinning those
// to hardware registers (instead of a fixed r0..r7 mapping) keeps the hot
// loop out of the frame.
var physPool = [8]int{rBX, rBP, rSI, rDI, r8, r9, r10, r11}

func intOff(r uint8) int32           { return offIntRegs + int32(r)*8 }
func fpOff(r uint8) int32            { return offFPRegs + int32(r)*8 }
func vecOff(r uint8, lane int) int32 { return offVecRegs + int32(r)*isa.VecLanes*8 + int32(lane)*8 }

// fixup kinds: forward references resolved after all code is emitted.
const (
	fixHead = iota // rel32 to a block head
	fixSlow        // rel32 to a block's slow trampoline
	fixEpi         // rel32 to the epilogue
)

// A fixup packs the offset of a rel32 field in buf (below maxCodeBytes, so
// 28 bits hold it), its kind and the block it refers to into one word, so
// the stamp loop records one with a single store.
type fixup uint64

const (
	fixKindShift  = 28
	fixBlockShift = 32
)

func mkFixup(pos int32, block uint32, kind uint8) fixup {
	return fixup(pos) | fixup(kind)<<fixKindShift | fixup(block)<<fixBlockShift
}

func (f fixup) pos() int32    { return int32(f & (1<<fixKindShift - 1)) }
func (f fixup) kind() uint8   { return uint8(f >> fixKindShift & 3) }
func (f fixup) block() uint32 { return uint32(f >> fixBlockShift) }

// Code is an installed, executable program. It is owned by the Compiler
// that produced it and valid until that Compiler's next Compile call.
type Code struct {
	entry uintptr
	heads []uintptr
	text  []byte // the installed code, through the read+execute view
	// Offsets in text of the load routine, the store routine, block 0's
	// head and the first slow stub: the section boundaries Dump reports.
	loadAt, storeAt, blocksAt, stubsAt int
}

// Size returns the generated machine-code size in bytes.
func (code *Code) Size() int { return len(code.text) }

// LoadRoutine and StoreRoutine return copies of the two shared
// scratch-memory routines (for hashcore dump-widget).
func (code *Code) LoadRoutine() []byte {
	return append([]byte(nil), code.text[code.loadAt:code.storeAt]...)
}

func (code *Code) StoreRoutine() []byte {
	return append([]byte(nil), code.text[code.storeAt:code.blocksAt]...)
}

// BlockSize returns the code bytes of block bi's head and body.
func (code *Code) BlockSize(bi int) int {
	end := uintptr(code.stubsAt) + code.entry
	if bi+1 < len(code.heads) {
		end = code.heads[bi+1]
	}
	return int(end - code.heads[bi])
}

// Run enters the native code at the head of block, with f supplying and
// receiving all architectural and accounting state.
func (code *Code) Run(f *Frame, block uint32) {
	f.Resume = code.heads[block]
	call(code.entry, f)
}

// Compiler compiles Programs. Not safe for concurrent use; all scratch
// (emit buffer, fixups, executable mapping) is reused between calls.
type Compiler struct {
	buf    []byte // emit arena; len(buf) is capacity, pos the cursor
	pos    int    // bytes emitted so far (the current code position)
	heads  []int32
	slow   []int32
	fix    []fixup
	mapped []byte // read+execute view of the code mapping (what runs)
	wview  []byte // read+write alias of the same pages; nil => mprotect mode
	code   Code
	// regMap[r] is the amd64 register holding widget integer register r,
	// or -1 when r lives in the Frame. Filled by allocRegs per Compile.
	regMap [isa.NumIntRegs]int8
	// Code positions of the shared memory routines (emitMemRoutines); they
	// precede every block, so call sites know them at emission.
	loadRoutine, storeRoutine int

	// What the stamp loop reads per operand (bindRegs): the shape kind of
	// widget integer register r, shifted to each operand field's place in
	// the shape, and patch[layout<<4|r], the byte an operand site of that
	// layout takes for register r. All are indexed by raw operand bytes,
	// hence the 256 entries.
	t *tmplTable
	// encoded counts the instructions of the current program that had no
	// template and went through the encoder.
	encoded               int
	kindDst, kindA, kindB [256]uint8
	patch                 [256]uint8
}

// physOf returns the hardware register mapped to widget integer register
// r, or -1 if r is frame-resident. The mask keeps a structurally invalid
// register field from panicking mid-compile (such programs never pass
// prog.Validate; the generated code is garbage either way).
func (c *Compiler) physOf(r uint8) int8 { return c.regMap[r&(isa.NumIntRegs-1)] }

// intUseMask records, per opcode, which operand fields name integer
// registers (bit 0: Dst, bit 1: A, bit 2: B); zero for opcodes whose
// operands live in the float or vector files.
var intUseMask = [64]uint8{
	isa.OpAdd: 7, isa.OpSub: 7, isa.OpAnd: 7, isa.OpOr: 7, isa.OpXor: 7,
	isa.OpShl: 7, isa.OpShr: 7, isa.OpRor: 7, isa.OpCmpLT: 7, isa.OpCmpEQ: 7,
	isa.OpMul: 7, isa.OpMulH: 7,
	isa.OpMov: 3, isa.OpAddI: 3, isa.OpLoad: 3,
	isa.OpMovI: 1, isa.OpFToI: 1, isa.OpVRed: 1,
	isa.OpFCvt: 2, isa.OpFLoad: 2, isa.OpFStore: 2, isa.OpVBcast: 2,
	isa.OpStore: 6, isa.OpBeq: 6, isa.OpBne: 6, isa.OpBlt: 6, isa.OpBge: 6,
}

// allocRegs assigns physPool to the most-referenced widget integer
// registers of p. The count is static, but the generated programs repeat
// their loop bodies enough that static and dynamic ranking agree on the
// registers that matter (the loop-carried counters and accumulators).
// Ties break toward the lower register index, keeping the choice — and
// therefore the generated code — deterministic.
func (c *Compiler) allocRegs(p *prog.Program) {
	// One counter array per operand field: an instruction often names one
	// register twice (the in-place forms) and the next one names it again,
	// and increments of one counter would queue up behind each other's
	// stores.
	var perField [3][isa.NumIntRegs]int32
	for i := range p.Code {
		// One load brings the opcode and the three operand bytes.
		w := *(*uint64)(unsafe.Pointer(&p.Code[i].Op))
		m := intUseMask[w&63]
		perField[0][w>>16&(isa.NumIntRegs-1)] += int32(m & 1)
		perField[1][w>>24&(isa.NumIntRegs-1)] += int32(m >> 1 & 1)
		perField[2][w>>32&(isa.NumIntRegs-1)] += int32(m >> 2)
	}
	var uses [isa.NumIntRegs]int32
	for r := range uses {
		uses[r] = perField[0][r] + perField[1][r] + perField[2][r]
	}
	for r := range c.regMap {
		c.regMap[r] = -1
	}
	for _, phys := range physPool {
		best := -1
		for r := 0; r < isa.NumIntRegs; r++ {
			if c.regMap[r] < 0 && (best < 0 || uses[r] > uses[best]) {
				best = r
			}
		}
		c.regMap[best] = int8(phys)
	}
}

// NewCompiler returns an empty compiler. The executable mapping it will
// own is released when the compiler is garbage collected.
func NewCompiler() *Compiler {
	c := &Compiler{t: templates()}
	for r := uint8(0); r < isa.NumIntRegs; r++ {
		c.patch[layDisp<<4|r] = uint8(intOff(r))
		c.patch[layFP<<4|r] = uint8(fpOff(r))
	}
	runtime.SetFinalizer(c, (*Compiler).release)
	return c
}

func (c *Compiler) release() {
	if c.wview != nil {
		syscall.Munmap(c.wview)
		c.wview = nil
	}
	if c.mapped != nil {
		syscall.Munmap(c.mapped)
		c.mapped = nil
	}
}

// Compile lowers p to native code and installs it in the compiler's
// executable mapping. The returned Code is valid until the next Compile.
//
// Code is stamped, not encoded: every piece — prologue, memory routines,
// block heads, lowered instructions, slow stubs, epilogue — is a byte
// template copied from the process-wide table and patched in place
// (template_amd64.go). The encoder below wrote those templates and is the
// oracle the tests compare Compile against; at hash time it runs only for
// what has no template (the fallback template_amd64.go documents).
func (c *Compiler) Compile(p *prog.Program) (*Code, error) {
	nb := len(p.Blocks)
	if nb > maxBlocks || len(p.Code) > maxInstrs {
		return nil, ErrTooLarge
	}
	c.allocRegs(p)
	blocksAt, stubsAt, err := c.stampProgram(p)
	if err != nil {
		return nil, err
	}
	if err := c.install(); err != nil {
		return nil, err
	}
	base := uintptr(unsafe.Pointer(&c.mapped[0]))
	c.code.entry = base
	c.code.text = c.mapped[:c.pos]
	c.code.loadAt, c.code.storeAt = c.loadRoutine, c.storeRoutine
	c.code.blocksAt, c.code.stubsAt = blocksAt, stubsAt
	if cap(c.code.heads) < nb {
		c.code.heads = make([]uintptr, nb)
	}
	c.code.heads = c.code.heads[:nb]
	for bi := range c.heads {
		c.code.heads[bi] = base + uintptr(c.heads[bi])
	}
	return &c.code, nil
}

// reset clears the per-program state, for a program of nb blocks.
func (c *Compiler) reset(nb int) {
	c.pos = 0
	c.encoded = 0
	c.fix = c.fix[:0]
	if cap(c.heads) < nb {
		c.heads = make([]int32, nb)
		c.slow = make([]int32, nb)
	}
	c.heads = c.heads[:nb]
	c.slow = c.slow[:nb]
}

// resolve patches every recorded forward reference; epiPos is where the
// epilogue starts. A stamped branch has its target checked here (the
// encoder checks as it lowers one).
func (c *Compiler) resolve(epiPos int32) error {
	for _, f := range c.fix {
		var target int32
		switch f.kind() {
		case fixHead:
			if int(f.block()) >= len(c.heads) {
				return errTarget(f.block(), len(c.heads))
			}
			target = c.heads[f.block()]
		case fixSlow:
			target = c.slow[f.block()]
		default:
			target = epiPos
		}
		binary.LittleEndian.PutUint32(c.buf[f.pos():], uint32(target-(f.pos()+4)))
	}
	return nil
}

// install copies the emitted code into the executable mapping, growing it
// when the program outgrows the current one. With a dual-mapped buffer
// the copy goes through the write view and no syscall runs; the mprotect
// fallback toggles the single mapping writable only between the copy and
// the final flip back to read+execute.
func (c *Compiler) install() error {
	n := c.pos
	if n > maxCodeBytes {
		return ErrTooLarge
	}
	if len(c.mapped) < n {
		if err := c.grow((n*2 + 0xfff) &^ 0xfff); err != nil { // headroom halves remap churn
			return err
		}
	}
	if c.wview != nil {
		// Stores through the write alias hit the same physical pages the
		// execute view fetches from; x86 keeps instruction fetch coherent
		// with stores to the same physical address, and the return/indirect
		// call between install and entry provides the required branch.
		copy(c.wview, c.buf[:n])
		return nil
	}
	if err := syscall.Mprotect(c.mapped, syscall.PROT_READ|syscall.PROT_WRITE); err != nil {
		return fmt.Errorf("jit: mprotect rw: %w", err)
	}
	copy(c.mapped, c.buf[:n])
	if err := syscall.Mprotect(c.mapped, syscall.PROT_READ|syscall.PROT_EXEC); err != nil {
		return fmt.Errorf("jit: mprotect rx: %w", err)
	}
	return nil
}

// memfd_create(2) on linux/amd64; not wrapped by the syscall package.
const (
	sysMemfdCreate = 319
	mfdCloexec     = 0x1
)

// grow (re)creates the code mapping with room for size bytes. It prefers
// a dual-mapped memfd: one read+write view install copies through and one
// read+execute view the session runs, so the per-hash compile does zero
// syscalls in steady state while W^X still holds — no page is ever
// writable and executable at once (the two protections live on distinct
// virtual mappings of the pages). Kernels or seccomp profiles without
// memfd_create fall back to a single anonymous mapping that install
// toggles with an mprotect pair per compile.
func (c *Compiler) grow(size int) error {
	c.release()
	name, _ := syscall.BytePtrFromString("hashcore-jit")
	if fd, _, errno := syscall.Syscall(sysMemfdCreate, uintptr(unsafe.Pointer(name)), mfdCloexec, 0); errno == 0 {
		// The mappings keep the pages alive on their own; the fd is only
		// needed to create them.
		defer syscall.Close(int(fd))
		if err := syscall.Ftruncate(int(fd), int64(size)); err == nil {
			rx, err := syscall.Mmap(int(fd), 0, size, syscall.PROT_READ|syscall.PROT_EXEC, syscall.MAP_SHARED)
			if err == nil {
				rw, err := syscall.Mmap(int(fd), 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
				if err == nil {
					c.mapped, c.wview = rx, rw
					return nil
				}
				syscall.Munmap(rx)
			}
		}
	}
	m, err := syscall.Mmap(-1, 0, size,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return fmt.Errorf("jit: mmap: %w", err)
	}
	c.mapped = m
	return nil
}

// ---- block and instruction lowering ----

// emitPrologue loads the mapped state from the Frame and jumps through
// Frame.Resume to the requested block head.
func (c *Compiler) emitPrologue() {
	c.ensure(regionMax)
	for r := 0; r < isa.NumIntRegs; r++ {
		if p := c.regMap[r]; p >= 0 {
			c.opRM(0x8B, int(p), r15, intOff(uint8(r)))
		}
	}
	c.emitPrologueTail()
}

// emitPrologueTail is the part of the prologue no register assignment
// changes.
func (c *Compiler) emitPrologueTail() {
	// R12 is the run-segment countdown: min(maxInstr - retired, untilSnap,
	// headroom), the number of instructions that may retire before
	// SOMETHING — budget exhaustion, a snapshot, or a written-word table
	// that could fill up (one store inserts at most one word) — needs the
	// slow path. Retired and untilSnap advance in lockstep, so one register
	// serves every guard and the epilogue reconstructs both counters from
	// how far it fell (LimStart keeps the entry value). Entry always has
	// retired <= maxInstr (both engines check budgets before running a
	// block), so the subtraction cannot wrap. R13 holds the per-block
	// execution-counter base for the block accounting, hoisted out of
	// every block head.
	c.opRM(0x8B, r12, r15, offMaxInstr)
	c.opRM(0x2B, r12, r15, offRetired)
	for _, limit := range [...]int32{offUntilSnap, offHeadroom} {
		c.opRM(0x8B, r13, r15, limit)
		c.opRR(0x3B, r12, r13)                                       // CMP r12, r13
		c.emit4(rex(true, r12, 0, r13), 0x0F, 0x47, modRR(r12, r13)) // CMOVA r12, r13
	}
	c.opRM(0x89, r12, r15, offLimStart)
	c.opRM(0x8B, r13, r15, offExecsBase)
	c.opRM(0x8B, r14, r15, offTable)
	c.emit2(0x41, 0xFF) // JMP QWORD [r15+offResume]
	c.modMem(4, r15, offResume)
}

// emitEpilogue stores the mapped state back into the Frame and returns to
// the trampoline.
func (c *Compiler) emitEpilogue() {
	c.ensure(regionMax)
	for r := 0; r < isa.NumIntRegs; r++ {
		if p := c.regMap[r]; p >= 0 {
			c.opRM(0x89, int(p), r15, intOff(uint8(r)))
		}
	}
	c.emitEpilogueTail()
}

func (c *Compiler) emitEpilogueTail() {
	c.opRM(0x8B, rAX, r15, offLimStart)
	c.opRR(0x2B, rAX, r12)               // spent = limStart - countdown
	c.opRM(0x01, rAX, r15, offRetired)   // retired += spent
	c.opRM(0x29, rAX, r15, offUntilSnap) // untilSnap -= spent
	c.emit1(0xC3)
}

// emitHead emits block bi's head guard and wholesale accounting (the
// native transcription of vm.runUnobserved's fast-path checks); the
// lowered body follows it.
func (c *Compiler) emitHead(bi int, count int32) {
	c.ensure(regionMax)
	// The interpreter's three head guards (retired >= maxInstr -> trunc;
	// count > maxInstr-retired -> slow; count >= untilSnap -> slow)
	// compress to ONE charge-and-check SUB against the fused countdown
	// (R12 = min(remaining budget, snapshot countdown), both of which an
	// instruction retirement decrements together). The SUB both performs
	// the wholesale accounting and leaves the guard condition in the
	// flags: JBE (borrow or zero) catches every case where the block
	// cannot retire wholesale with both counters still positive, and the
	// per-instruction slow path re-derives which boundary it was. The
	// guard is deliberately conservative where the old split guards were
	// exact — countdown == count, with the budget the binding counter,
	// now bounces to the slow path instead of retiring wholesale — but
	// the slow path is bit-identical, so only the (rare, at most
	// once-per-segment) venue changes, never the result. The trampoline
	// undoes the charge before bailing out.
	if count == 0 {
		// An empty block: nothing to charge, but a spent countdown still
		// must not enter the blocks it falls through to.
		c.aluImm(7, r12, 0)
		c.jccFix(0x84, fixSlow, uint32(bi)) // JE: countdown == 0
	} else {
		c.aluImm(5, r12, count)
		c.jccFix(0x86, fixSlow, uint32(bi)) // JBE: countdown was <= count
	}
	c.addMem1(r13, int32(bi)*8)
}

// emitFallOff ends a last block that does not end in an unconditional
// transfer. Every other block falls through physically into the next
// block's head; after the last there is none, so a slow exit names block
// nb and the driver's slow-path call fails exactly like the interpreter
// indexing past its block table would (such a program is invalid and
// unreachable through prog.Validate).
func (c *Compiler) emitFallOff(nb int) {
	c.ensure(regionMax)
	c.mov32MemImm(offNextBlock, uint32(nb))
	c.mov32MemImm(offStatus, StatusSlow)
	c.jmpFix(fixEpi, 0)
}

// emitSlowTail emits the shared tail of the slow stubs. The head guards
// funnel every boundary condition through it, entered with the block
// index in EAX: it names the block in NextBlock and reports StatusSlow,
// and the driver's per-instruction path re-derives what the boundary was
// (snapshot due, budget straddle, or budget already exhausted — in the
// last case it truncates before retiring anything, exactly like the
// interpreter's head check). Everything here is cold, so the cost that
// matters is bytes compiled, not instructions executed.
func (c *Compiler) emitSlowTail() {
	c.ensure(regionMax)
	c.emit2(0x41, 0x89) // MOV DWORD [r15+offNextBlock], eax
	c.modMem(rAX, r15, offNextBlock)
	c.mov32MemImm(offStatus, StatusSlow)
	c.jmpFix(fixEpi, 0)
}

// emitStub emits block bi's slow stub: a short trampoline that undoes the
// charge the head guard's SUB made before borrowing out, then enters the
// shared tail at slowTail.
func (c *Compiler) emitStub(bi int, count int32, slowTail int) {
	c.ensure(32)
	if count != 0 {
		c.aluImm(0, r12, count) // undo the countdown charge
	}
	c.emit1(0xB8) // MOV eax, bi
	c.u32(uint32(bi))
	c.emit1(0xE9) // JMP tail (backward, target already known)
	c.u32(uint32(int32(slowTail - (c.pos + 4))))
}

// endsUnconditional reports whether block bi of p ends in a jmp or a halt.
func endsUnconditional(p *prog.Program, bi int) bool {
	code := p.Instrs(bi)
	if len(code) == 0 {
		return false
	}
	op := code[len(code)-1].Op
	return op == isa.OpJmp || op == isa.OpHalt
}

func errTarget(target uint32, nb int) error {
	return fmt.Errorf("jit: branch target %d out of range (%d blocks)", target, nb)
}

// emitInstr lowers one instruction; the caller has reserved regionMax.
func (c *Compiler) emitInstr(ins *prog.Instr, nb int) error {
	if ins.Op.IsControl() && ins.Op != isa.OpHalt && ins.Target >= uint32(nb) {
		return errTarget(ins.Target, nb)
	}
	switch ins.Op {
	case isa.OpAdd:
		c.intALU(0x03, ins)
	case isa.OpSub:
		c.intALU(0x2B, ins)
	case isa.OpAnd:
		c.intALU(0x23, ins)
	case isa.OpOr:
		c.intALU(0x0B, ins)
	case isa.OpXor:
		c.intALU(0x33, ins)
	case isa.OpShl:
		c.shiftOp(4, ins)
	case isa.OpShr:
		c.shiftOp(5, ins)
	case isa.OpRor:
		c.shiftOp(1, ins)
	case isa.OpCmpLT:
		c.cmpSet(0x92, ins) // SETB
	case isa.OpCmpEQ:
		c.cmpSet(0x94, ins) // SETE
	case isa.OpMov:
		if p := c.physOf(ins.Dst); p >= 0 {
			c.loadReg(int(p), ins.A)
		} else {
			c.loadReg(rAX, ins.A)
			c.storeReg(ins.Dst, rAX)
		}
	case isa.OpMovI:
		if p := c.physOf(ins.Dst); p >= 0 {
			c.movImm64(int(p), uint64(ins.Imm))
		} else {
			c.movImm64(rAX, uint64(ins.Imm))
			c.storeReg(ins.Dst, rAX)
		}
	case isa.OpAddI:
		if p := c.physOf(ins.Dst); ins.Dst == ins.A && p >= 0 {
			c.addImm(int(p), ins.Imm)
		} else {
			c.loadReg(rAX, ins.A)
			c.addImm(rAX, ins.Imm)
			c.storeReg(ins.Dst, rAX)
		}

	case isa.OpMul:
		c.loadReg(rAX, ins.A)
		c.imulReg(rAX, ins.B)
		c.storeReg(ins.Dst, rAX)
	case isa.OpMulH:
		// MUL leaves the high 64 bits of the unsigned product in RDX —
		// the exact semantics vm.mul64 reproduces portably.
		c.loadReg(rAX, ins.A)
		c.mulByReg(ins.B)
		c.storeReg(ins.Dst, rDX)

	case isa.OpFAdd:
		c.fpBin(0x58, ins)
	case isa.OpFSub:
		c.fpBin(0x5C, ins)
	case isa.OpFMul:
		c.fpBin(0x59, ins)
	case isa.OpFDiv:
		c.fpBin(0x5E, ins)
	case isa.OpFSqrt:
		// sqrt(abs(a)): clear the sign bit, then SQRTSD.
		c.opRM(0x8B, rAX, r15, fpOff(ins.A))
		c.movImm64(rDX, 0x7fffffffffffffff)
		c.opRR(0x23, rAX, rDX)
		c.movqXR(0, rAX)
		c.sseRR(0xF2, 0x51, 0, 0)
		c.canonStore(ins.Dst)
	case isa.OpFMov:
		// Raw bit copy — no canonicalization (matches the interpreter).
		c.opRM(0x8B, rAX, r15, fpOff(ins.A))
		c.opRM(0x89, rAX, r15, fpOff(ins.Dst))
	case isa.OpFCvt:
		// CVTSI2SD never produces NaN; canonBits is the identity here.
		c.loadReg(rAX, ins.A)
		c.emit5(0xF2, 0x48, 0x0F, 0x2A, 0xC0) // CVTSI2SD xmm0, rax
		c.sseRM(0xF2, 0x11, 0, r15, fpOff(ins.Dst))
	case isa.OpFToI:
		c.emitFToI(ins)

	case isa.OpLoad:
		c.emitAddr(ins.A, ins.Imm)
		c.call(c.loadRoutine)
		c.storeReg(ins.Dst, rDX)
	case isa.OpFLoad:
		c.emitAddr(ins.A, ins.Imm)
		c.call(c.loadRoutine)
		// canonFPBits: canonicalize only if the loaded bits are a NaN.
		c.movqXR(0, rDX)
		c.sseRR(0x66, 0x2E, 0, 0) // UCOMISD xmm0, xmm0
		skip := c.jccLocal(0x8B)  // JNP
		c.movImm64(rDX, canonicalNaN)
		c.bind(skip)
		c.opRM(0x89, rDX, r15, fpOff(ins.Dst))
	case isa.OpStore:
		c.emitAddr(ins.A, ins.Imm)
		c.loadReg(rDX, ins.B)
		c.call(c.storeRoutine)
	case isa.OpFStore:
		c.emitAddr(ins.A, ins.Imm)
		c.opRM(0x8B, rDX, r15, fpOff(ins.B))
		c.call(c.storeRoutine)

	case isa.OpBeq:
		c.condBranch(0x84, ins)
	case isa.OpBne:
		c.condBranch(0x85, ins)
	case isa.OpBlt:
		c.condBranch(0x82, ins)
	case isa.OpBge:
		c.condBranch(0x83, ins)
	case isa.OpJmp:
		c.jmpFix(fixHead, ins.Target)
	case isa.OpHalt:
		c.mov32MemImm(offStatus, StatusHalt)
		c.jmpFix(fixEpi, 0)

	case isa.OpVAdd:
		c.vecALU(0x03, ins)
	case isa.OpVXor:
		c.vecALU(0x33, ins)
	case isa.OpVMul:
		for l := 0; l < isa.VecLanes; l++ {
			c.opRM(0x8B, rAX, r15, vecOff(ins.A, l))
			c.imulMem(rAX, vecOff(ins.B, l))
			c.opRM(0x89, rAX, r15, vecOff(ins.Dst, l))
		}
	case isa.OpVBcast:
		c.loadReg(rAX, ins.A)
		c.opRM(0x89, rAX, r15, vecOff(ins.Dst, 0))
		for l := 1; l < isa.VecLanes; l++ {
			c.emit4(0x48, 0x8D, 0x50, byte(l)) // LEA rdx, [rax+l]
			c.opRM(0x89, rDX, r15, vecOff(ins.Dst, l))
		}
	case isa.OpVRed:
		c.opRM(0x8B, rAX, r15, vecOff(ins.A, 0))
		for l := 1; l < isa.VecLanes; l++ {
			c.opRM(0x33, rAX, r15, vecOff(ins.A, l))
		}
		c.storeReg(ins.Dst, rAX)

	default:
		return fmt.Errorf("jit: cannot lower opcode %v", ins.Op)
	}
	return nil
}

// intALU lowers dst = a OP b through RAX (or in place when dst == a is
// register-mapped — x86 two-operand form matches exactly).
func (c *Compiler) intALU(op byte, ins *prog.Instr) {
	if p := c.physOf(ins.Dst); ins.Dst == ins.A && p >= 0 {
		c.aluReg(op, int(p), ins.B)
		return
	}
	c.loadReg(rAX, ins.A)
	c.aluReg(op, rAX, ins.B)
	c.storeReg(ins.Dst, rAX)
}

// vecALU lowers a lane-wise add/xor via GPR loads (SSE2 has no 64-bit
// lane multiply anyway, so all vector ops stay scalar-per-lane).
func (c *Compiler) vecALU(op byte, ins *prog.Instr) {
	for l := 0; l < isa.VecLanes; l++ {
		c.opRM(0x8B, rAX, r15, vecOff(ins.A, l))
		c.opRM(op, rAX, r15, vecOff(ins.B, l))
		c.opRM(0x89, rAX, r15, vecOff(ins.Dst, l))
	}
}

// shiftOp lowers shl/shr/ror: the D3-group shifts mask the CL count to 6
// bits in 64-bit mode, which is exactly the VM's  & 63  semantics.
func (c *Compiler) shiftOp(ext byte, ins *prog.Instr) {
	c.loadReg(rCX, ins.B)
	c.loadReg(rAX, ins.A)
	c.emit3(0x48, 0xD3, 0xC0|ext<<3) // D3 /ext rax
	c.storeReg(ins.Dst, rAX)
}

// cmpSet lowers cmplt/cmpeq: unsigned compare + SETcc into a zeroed RAX.
func (c *Compiler) cmpSet(setcc byte, ins *prog.Instr) {
	c.emit2(0x31, 0xC0) // XOR eax, eax (before the CMP — XOR clobbers flags)
	c.loadReg(rDX, ins.A)
	c.aluReg(0x3B, rDX, ins.B)
	c.emit3(0x0F, setcc, 0xC0) // SETcc al
	c.storeReg(ins.Dst, rAX)
}

// condBranch lowers a conditional branch terminator: count it, compare,
// and on taken bump the taken counter and jump to the target head; not
// taken falls through (physically, to the next block's head).
func (c *Compiler) condBranch(cc byte, ins *prog.Instr) {
	c.addMem1(r15, offCond)
	c.loadReg(rAX, ins.A)
	c.aluReg(0x3B, rAX, ins.B)
	skip := c.jccLocal(cc ^ 1) // inverted condition skips the taken path
	c.addMem1(r15, offTaken)
	c.jmpFix(fixHead, ins.Target)
	c.bind(skip)
}

// emitFToI lowers the saturating float->int conversion, reproducing
// vm.clampToInt64 exactly: NaN -> 0, f >= 2^63 -> MaxInt64,
// f <= -2^63 -> 1<<63, else CVTTSD2SI (truncate toward zero).
func (c *Compiler) emitFToI(ins *prog.Instr) {
	c.sseRM(0xF2, 0x10, 0, r15, fpOff(ins.A))
	c.sseRR(0x66, 0x2E, 0, 0)           // UCOMISD xmm0, xmm0
	nan := c.jccLocal(0x8A)             // JP
	c.movImm64(rAX, 0x43E0000000000000) // 2^63
	c.movqXR(1, rAX)
	c.sseRR(0x66, 0x2E, 0, 1)
	hi := c.jccLocal(0x83)              // JAE: f >= 2^63
	c.movImm64(rAX, 0xC3E0000000000000) // -2^63
	c.movqXR(1, rAX)
	c.sseRR(0x66, 0x2E, 0, 1)
	lo := c.jccLocal(0x86)                // JBE: f <= -2^63
	c.emit5(0xF2, 0x48, 0x0F, 0x2C, 0xC0) // CVTTSD2SI rax, xmm0
	d1 := c.jmpLocal()
	c.bind(nan)
	c.emit2(0x31, 0xC0) // XOR eax, eax
	d2 := c.jmpLocal()
	c.bind(hi)
	c.movImm64(rAX, 0x7fffffffffffffff)
	d3 := c.jmpLocal()
	c.bind(lo)
	c.movImm64(rAX, 1<<63)
	c.bind(d1)
	c.bind(d2)
	c.bind(d3)
	c.storeReg(ins.Dst, rAX)
}

// emitAddr computes the effective address r[a] + imm into RAX, unmasked:
// the memory routine every site goes on to call wraps and aligns it, so
// the AND is emitted once per program rather than once per site. When the
// base register is hardware-resident and the offset fits a displacement,
// one LEA folds the register move and the add — loads are the most common
// widget opcode, so this saves an instruction on most of them.
func (c *Compiler) emitAddr(a uint8, imm int64) {
	if p := c.physOf(a); p >= 0 && imm != 0 && imm == int64(int32(imm)) {
		c.emit2(rex(true, rAX, 0, int(p)), 0x8D) // LEA rax, [phys+imm]
		c.modMem(rAX, int(p), int32(imm))
	} else {
		c.loadReg(rAX, a)
		c.addImm(rAX, imm)
	}
}

// emitMemRoutines emits the two routines through which every load and
// store site reaches the sparse scratch memory (vm.Machine documents the
// model, Frame the table's layout). Both take the unmasked effective
// address in RAX and clobber only the scratch registers RAX, RCX, RDX and
// (store) XMM0.
//
// load returns the word in RDX: rng.SplitMix64At(memSeed, index) =
// mix64(SeedGamma + index*Gamma) when the written bit is clear — what a
// materialized image would hold there, and where nearly every load goes —
// and otherwise the value in the word's table slot, probing from its home
// until the key matches (a set bit means the word is in the table). store
// takes the value in RDX and sets the bit; if the bit was clear the word
// is new and takes the first empty slot from its home (a key below Epoch,
// i.e. left by an earlier run), counted in Inserts, and otherwise it
// overwrites the word's slot. The bit tests use the register forms of
// BT/BTS on the loaded map word (the count is taken mod 64); the memory
// forms with a register offset are microcoded.
func (c *Compiler) emitMemRoutines() {
	c.ensure(regionMax)
	c.loadRoutine = c.pos
	c.opRM(0x23, rAX, r15, offMask)    // AND rax, [mask]: aligned byte address
	c.opRM(0x8B, rCX, r15, offWritten) // MOV rcx, [written]
	c.opRR(0x8B, rDX, rAX)
	c.shrImm(rDX, 9)                // map word index: address / 8 / 64
	c.emit4(0x48, 0x8B, 0x0C, 0xD1) // MOV rcx, [rcx+rdx*8]
	c.opRR(0x8B, rDX, rAX)
	c.shrImm(rDX, 3)                // word index
	c.emit4(0x48, 0x0F, 0xA3, 0xD1) // BT rcx, rdx
	// Pristine is the fall-through: a widget reads far more words than it
	// ever writes (DESIGN.md has the counts per profile).
	written := c.jccLocal(0x82) // JC
	c.movImm64(rCX, rng.SplitMix64Gamma)
	c.imulRR(rDX, rCX)
	c.opRM(0x03, rDX, r15, offSeedGamma)
	for _, step := range [...]struct {
		shift byte
		mul   uint64
	}{{30, rng.SplitMix64Mul1}, {27, rng.SplitMix64Mul2}, {31, 0}} {
		c.opRR(0x8B, rCX, rDX)
		c.shrImm(rCX, step.shift)
		c.opRR(0x33, rDX, rCX) // z ^= z >> shift
		if step.mul != 0 {
			c.movImm64(rCX, step.mul)
			c.imulRR(rDX, rCX)
		}
	}
	c.emit1(0xC3) // RET
	c.bind(written)
	c.emitHomeKey()
	probe := c.pos
	c.emit4(0x49, 0x3B, 0x0C, 0x06)       // CMP rcx, [r14+rax]: the word's key?
	next := c.jccLocal(0x85)              // JNE
	c.emit5(0x49, 0x8B, 0x54, 0x06, 0x08) // MOV rdx, [r14+rax+8]
	c.emit1(0xC3)
	c.bind(next)
	c.emitNextSlot(probe)

	c.ensure(regionMax)
	c.storeRoutine = c.pos
	c.movqXR(0, rDX) // the value waits in XMM0
	c.opRM(0x23, rAX, r15, offMask)
	c.shrImm(rAX, 3) // word index
	c.opRR(0x8B, rDX, rAX)
	c.shrImm(rDX, 6) // map word index
	c.opRM(0x8B, rCX, r15, offWritten)
	c.emit4(0x48, 0x8D, 0x0C, 0xD1) // LEA rcx, [rcx+rdx*8]
	c.emit3(0x48, 0x8B, 0x11)       // MOV rdx, [rcx]
	c.emit4(0x48, 0x0F, 0xAB, 0xC2) // BTS rdx, rax
	c.emit3(0x48, 0x89, 0x11)       // MOV [rcx], rdx
	c.opRR(0x8B, rDX, rAX)          // MOV leaves BTS's carry: the old bit
	rewrite := c.jccLocal(0x82)     // JC
	// A new word: the first slot from its home whose key is below Epoch.
	c.emitHomeKey()
	c.opRM(0x8B, rDX, r15, offEpoch)
	insert := c.pos
	c.emit4(0x49, 0x39, 0x14, 0x06) // CMP [r14+rax], rdx
	taken := c.jccLocal(0x83)       // JAE: a key of this run
	c.emit4(0x49, 0x89, 0x0C, 0x06) // MOV [r14+rax], rcx
	c.addMem1(r15, offInserts)
	toPut := c.jmpLocal()
	c.bind(taken)
	c.emitNextSlot(insert)
	// A word stored before: its slot.
	c.ensure(regionMax)
	c.bind(rewrite)
	c.emitHomeKey()
	find := c.pos
	c.emit4(0x49, 0x3B, 0x0C, 0x06) // CMP rcx, [r14+rax]
	next = c.jccLocal(0x85)         // JNE
	c.bind(toPut)
	c.emit5(0x66, 0x48, 0x0F, 0x7E, 0xC2) // MOVQ rdx, xmm0
	c.emit5(0x49, 0x89, 0x54, 0x06, 0x08) // MOV [r14+rax+8], rdx
	c.emit1(0xC3)
	c.bind(next)
	c.emitNextSlot(find)
}

// emitHomeKey starts a table probe for the word index in RDX (kept): RAX
// becomes the byte offset of the word's home slot, (index*Gamma >>
// TableShift) & TableMask, and RCX its key, Epoch | index.
func (c *Compiler) emitHomeKey() {
	c.movImm64(rAX, rng.SplitMix64Gamma)
	c.imulRR(rAX, rDX)
	c.opRM(0x8B, rCX, r15, offTableShift)
	c.emit3(0x48, 0xD3, 0xE8) // SHR rax, cl
	c.opRM(0x23, rAX, r15, offTableMask)
	c.opRM(0x8B, rCX, r15, offEpoch)
	c.opRR(0x0B, rCX, rDX)
}

// emitNextSlot steps RAX to the next slot, wrapping at the table's end,
// and jumps back to the probe at loop.
func (c *Compiler) emitNextSlot(loop int) {
	c.aluImm(0, rAX, 16)
	c.opRM(0x23, rAX, r15, offTableMask)
	c.emit1(0xE9) // JMP loop
	c.u32(uint32(int32(loop - (c.pos + 4))))
}

// call emits CALL rel32 to an already emitted position.
func (c *Compiler) call(target int) {
	c.emit1(0xE8)
	c.u32(uint32(int32(target - (c.pos + 4))))
}

// shrImm emits SHR reg, imm8 (reg one of the low eight registers).
func (c *Compiler) shrImm(reg int, imm byte) {
	c.emit4(0x48, 0xC1, 0xE8|byte(reg), imm)
}

// imulRR emits reg = reg * rm (low 64 bits).
func (c *Compiler) imulRR(reg, rm int) {
	c.emit4(rex(true, reg, 0, rm), 0x0F, 0xAF, modRR(reg, rm))
}

// ---- register/operand access ----

// loadReg materializes widget integer register r into phys.
func (c *Compiler) loadReg(phys int, r uint8) {
	if p := c.physOf(r); p >= 0 {
		c.opRR(0x8B, phys, int(p))
	} else {
		c.opRM(0x8B, phys, r15, intOff(r))
	}
}

// storeReg writes phys back to widget integer register r.
func (c *Compiler) storeReg(r uint8, phys int) {
	if p := c.physOf(r); p >= 0 {
		c.opRR(0x8B, int(p), phys)
	} else {
		c.opRM(0x89, phys, r15, intOff(r))
	}
}

// aluReg emits phys = phys OP r for a reg<-rm ALU opcode.
func (c *Compiler) aluReg(op byte, phys int, r uint8) {
	if p := c.physOf(r); p >= 0 {
		c.opRR(op, phys, int(p))
	} else {
		c.opRM(op, phys, r15, intOff(r))
	}
}

// imulReg emits phys = phys * r (low 64 bits; signed and unsigned agree).
func (c *Compiler) imulReg(phys int, r uint8) {
	if p := c.physOf(r); p >= 0 {
		c.imulRR(phys, int(p))
	} else {
		c.imulMem(phys, intOff(r))
	}
}

func (c *Compiler) imulMem(phys int, disp int32) {
	c.emit3(rex(true, phys, 0, r15), 0x0F, 0xAF)
	c.modMem(phys, r15, disp)
}

// mulByReg emits MUL r (RDX:RAX = RAX * r, unsigned).
func (c *Compiler) mulByReg(r uint8) {
	if p := c.physOf(r); p >= 0 {
		c.emit3(rex(true, 0, 0, int(p)), 0xF7, 0xC0|4<<3|byte(int(p)&7))
	} else {
		c.emit2(rex(true, 0, 0, r15), 0xF7)
		c.modMem(4, r15, intOff(r))
	}
}

// fpBin lowers an FP binary op through XMM0 with NaN canonicalization.
func (c *Compiler) fpBin(op byte, ins *prog.Instr) {
	c.sseRM(0xF2, 0x10, 0, r15, fpOff(ins.A))
	c.sseRM(0xF2, op, 0, r15, fpOff(ins.B))
	c.canonStore(ins.Dst)
}

// canonStore replaces a NaN in XMM0 with the canonical pattern, then
// stores XMM0 to FP register dst.
func (c *Compiler) canonStore(dst uint8) {
	c.sseRR(0x66, 0x2E, 0, 0) // UCOMISD xmm0, xmm0
	skip := c.jccLocal(0x8B)  // JNP: ordered, not NaN
	c.movImm64(rAX, canonicalNaN)
	c.movqXR(0, rAX)
	c.bind(skip)
	c.sseRM(0xF2, 0x11, 0, r15, fpOff(dst))
}

// ---- raw encoding helpers ----

// put writes the low n bytes of the little-endian packed value v at the
// cursor and advances it by n. It always stores a full 8-byte word — the
// bytes past n are slack that the next put overwrites — so every emit
// helper compiles to one wide store plus a cursor bump instead of n
// byte stores and a 3-word slice-header write-back. Byte emission
// dominates compile time and compilation is on the hash path, which is
// why the buffer is a fixed-length arena driven by c.pos rather than an
// append target.
func (c *Compiler) put(v uint64, n int) {
	p := c.pos
	// Direct unaligned store: this file is amd64-only, so little-endian
	// byte order is given, and the raw store keeps put within the
	// compiler's inlining budget where encoding/binary's byte-wise form
	// (or a capacity check with a grow call) does not. Capacity is the
	// caller's contract: every emission region runs under an ensure()
	// reservation that covers its worst case plus put's 8-byte slack, so
	// the only check left here is the bounds check the indexing implies.
	*(*uint64)(unsafe.Pointer(&c.buf[p])) = v
	c.pos = p + n
}

// ensure reserves room for n more code bytes plus put's 8-byte slack.
// Callers bracket whole emission regions (a prologue, one lowered
// instruction, a slow stub) with a single generous reservation instead
// of checking per byte group — regionMax is the per-instruction worst
// case.
func (c *Compiler) ensure(n int) {
	if len(c.buf)-c.pos < n+8 {
		c.growBuf(n)
	}
}

// regionMax bounds the code bytes one ensure region may emit: the widest
// lowering is OpVMul at VecLanes scalar round trips (~22 bytes per lane
// in disp32 forms), and block heads, prologue and epilogue all fit well
// under it too.
const regionMax = 256

// growBuf grows the emit arena (doubling, by at least a 64 KiB step) until
// n more bytes fit, preserving the emitted prefix. Kept out of ensure's
// fast path; the arena holds its high-water size across Compile calls, so
// steady-state compilation never lands here.
//
//go:noinline
func (c *Compiler) growBuf(n int) {
	newCap := max(2*len(c.buf), 1<<16)
	for newCap-c.pos < n+8 {
		newCap *= 2
	}
	nb := make([]byte, newCap)
	copy(nb, c.buf[:c.pos])
	c.buf = nb
}

// Fixed-arity emit helpers over put.
func (c *Compiler) emit1(b0 byte)     { c.put(uint64(b0), 1) }
func (c *Compiler) emit2(b0, b1 byte) { c.put(uint64(b0)|uint64(b1)<<8, 2) }
func (c *Compiler) emit3(b0, b1, b2 byte) {
	c.put(uint64(b0)|uint64(b1)<<8|uint64(b2)<<16, 3)
}
func (c *Compiler) emit4(b0, b1, b2, b3 byte) {
	c.put(uint64(b0)|uint64(b1)<<8|uint64(b2)<<16|uint64(b3)<<24, 4)
}
func (c *Compiler) emit5(b0, b1, b2, b3, b4 byte) {
	c.put(uint64(b0)|uint64(b1)<<8|uint64(b2)<<16|uint64(b3)<<24|uint64(b4)<<32, 5)
}

func (c *Compiler) u32(v uint32) { c.put(uint64(v), 4) }

func (c *Compiler) u64(v uint64) { c.put(v, 8) }

func rex(w bool, reg, index, rm int) byte {
	b := byte(0x40)
	if w {
		b |= 8
	}
	if reg >= 8 {
		b |= 4
	}
	if index >= 8 {
		b |= 2
	}
	if rm >= 8 {
		b |= 1
	}
	return b
}

func modRR(reg, rm int) byte { return 0xC0 | byte(reg&7)<<3 | byte(rm&7) }

// opRR emits a 64-bit reg,reg instruction for a ModRM opcode
// (ADD 03, SUB 2B, AND 23, OR 0B, XOR 33, CMP 3B, MOV 8B load / 89 store).
func (c *Compiler) opRR(op byte, reg, rm int) {
	c.emit3(rex(true, reg, 0, rm), op, modRR(reg, rm))
}

// modMem emits the ModRM byte and displacement for [base+disp], using the
// short disp8 form when the displacement fits — which, thanks to the
// biased frame pointer, is every hot frame access. base must not be
// RSP/R12 (no SIB path); only R15 and RAX are used.
func (c *Compiler) modMem(reg, base int, disp int32) {
	if disp == int32(int8(disp)) {
		c.emit2(0x40|byte(reg&7)<<3|byte(base&7), byte(disp))
	} else {
		c.put(uint64(0x80|byte(reg&7)<<3|byte(base&7))|uint64(uint32(disp))<<8, 5)
	}
}

// opRM emits the same opcode against [base+disp]. The reg field is the
// register operand (destination for loads, source for stores). The whole
// instruction goes out in one append — opRM is the single most frequent
// emission (every frame-slot load/store), and splitting it across helper
// calls costs a second round of append bookkeeping per instruction.
func (c *Compiler) opRM(op byte, reg, base int, disp int32) {
	if disp == int32(int8(disp)) {
		c.put(uint64(rex(true, reg, 0, base))|uint64(op)<<8|
			uint64(0x40|byte(reg&7)<<3|byte(base&7))<<16|uint64(byte(disp))<<24, 4)
		return
	}
	c.put(uint64(rex(true, reg, 0, base))|uint64(op)<<8|
		uint64(0x80|byte(reg&7)<<3|byte(base&7))<<16|uint64(uint32(disp))<<24, 7)
}

// movImm64 loads an immediate, using the sign-extended 32-bit form when
// it fits (C7 /0 sign-extends, matching uint64(int64(imm)) semantics).
func (c *Compiler) movImm64(reg int, v uint64) {
	if int64(v) == int64(int32(v)) {
		c.put(uint64(rex(true, 0, 0, reg))|0xC7<<8|
			uint64(0xC0|byte(reg&7))<<16|uint64(uint32(v))<<24, 7)
	} else {
		c.emit2(rex(true, 0, 0, reg), 0xB8+byte(reg&7))
		c.put(v, 8)
	}
}

// aluImm emits the 81 /ext reg, imm32 group (ADD /0, SUB /5, CMP /7),
// shrinking to the sign-extending 83 /ext imm8 form when the immediate
// fits (identical semantics: both forms sign-extend to 64 bits).
func (c *Compiler) aluImm(ext byte, reg int, imm int32) {
	if imm == int32(int8(imm)) {
		c.emit4(rex(true, 0, 0, reg), 0x83, 0xC0|ext<<3|byte(reg&7), byte(imm))
		return
	}
	c.put(uint64(rex(true, 0, 0, reg))|0x81<<8|
		uint64(0xC0|ext<<3|byte(reg&7))<<16|uint64(uint32(imm))<<24, 7)
}

// addImm adds a 64-bit immediate to reg (RDX is scratch for wide values).
func (c *Compiler) addImm(reg int, imm int64) {
	if imm == 0 {
		return
	}
	if imm == int64(int32(imm)) {
		c.aluImm(0, reg, int32(imm))
	} else {
		c.movImm64(rDX, uint64(imm))
		c.opRR(0x03, reg, rDX)
	}
}

// addMem1 emits ADD QWORD [base+disp], 1.
func (c *Compiler) addMem1(base int, disp int32) {
	if disp == int32(int8(disp)) {
		c.emit5(rex(true, 0, 0, base), 0x83, 0x40|byte(base&7), byte(disp), 1)
		return
	}
	c.put(uint64(rex(true, 0, 0, base))|0x83<<8|uint64(0x80|byte(base&7))<<16|
		uint64(uint32(disp))<<24|1<<56, 8)
}

// mov32MemImm emits MOV DWORD [r15+disp], imm32.
func (c *Compiler) mov32MemImm(disp int32, imm uint32) {
	if disp == int32(int8(disp)) {
		c.put(0x41|0xC7<<8|uint64(0x40|byte(r15&7))<<16|uint64(byte(disp))<<24|
			uint64(imm)<<32, 8)
		return
	}
	c.put(0x41|0xC7<<8|uint64(0x80|byte(r15&7))<<16|uint64(uint32(disp))<<24, 7)
	c.u32(imm)
}

// sseRM emits prefix 0F op xmm, [base+disp] (or the store direction,
// depending on the opcode).
func (c *Compiler) sseRM(prefix, op byte, xmm, base int, disp int32) {
	c.emit1(prefix)
	if r := rex(false, xmm, 0, base); r != 0x40 {
		c.emit1(r)
	}
	c.emit2(0x0F, op)
	c.modMem(xmm, base, disp)
}

// sseRR emits prefix 0F op xmm, xmm2.
func (c *Compiler) sseRR(prefix, op byte, xmm, xmm2 int) {
	c.emit4(prefix, 0x0F, op, modRR(xmm, xmm2))
}

// movqXR emits MOVQ xmm, r64.
func (c *Compiler) movqXR(xmm, reg int) {
	c.emit5(0x66, rex(true, xmm, 0, reg), 0x0F, 0x6E, modRR(xmm, reg))
}

// ---- branches and fixups ----

// jccLocal emits a Jcc rel32 with an unresolved offset; bind resolves it
// to the current position. cc is the low opcode byte (0F 8x).
func (c *Compiler) jccLocal(cc byte) int {
	c.put(0x0F|uint64(cc)<<8, 6)
	return c.pos - 4
}

func (c *Compiler) jmpLocal() int {
	c.put(0xE9, 5)
	return c.pos - 4
}

func (c *Compiler) bind(pos int) {
	binary.LittleEndian.PutUint32(c.buf[pos:], uint32(c.pos-(pos+4)))
}

func (c *Compiler) jccFix(cc byte, kind uint8, block uint32) {
	c.put(0x0F|uint64(cc)<<8, 6)
	c.fix = append(c.fix, mkFixup(int32(c.pos-4), block, kind))
}

func (c *Compiler) jmpFix(kind uint8, block uint32) {
	c.put(0xE9, 5)
	c.fix = append(c.fix, mkFixup(int32(c.pos-4), block, kind))
}
