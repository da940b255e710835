//go:build amd64 && linux

package jit

// Unit tests for the code generator, below the vm driver: hand-built
// Programs compiled and entered directly through a Frame. The vm package's
// differential suites (FuzzEnginesVsDense and the boundary sweeps) are the
// semantic ground truth; these tests pin the Frame ABI — head-guard exits,
// wholesale retirement, status codes — that the driver relies on.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"testing"
	"unsafe"

	"hashcore/internal/isa"
	"hashcore/internal/prog"
	"hashcore/internal/rng"
	"hashcore/internal/workload/refprog"
)

// twoBlockProgram is MovI r0,7; MovI r9,5; Add r2,r0,r9; Jmp b1 / Halt:
// it exercises a register-mapped and a frame-spilled integer register, an
// inter-block jump fixup and the halt exit.
func twoBlockProgram() *prog.Program {
	return &prog.Program{
		Code: []prog.Instr{
			{Op: isa.OpMovI, Dst: 0, Imm: 7},
			{Op: isa.OpMovI, Dst: 9, Imm: 5},
			{Op: isa.OpAdd, Dst: 2, A: 0, B: 9},
			{Op: isa.OpJmp, Target: 1},
			{Op: isa.OpHalt},
		},
		Blocks: []prog.Block{{Start: 0, Len: 4}, {Start: 4, Len: 1}},
	}
}

// newFrame returns a Frame with a generous budget, countdown and table
// headroom.
func newFrame() *Frame {
	return &Frame{MaxInstr: 1 << 20, UntilSnap: 1 << 20, Headroom: 1 << 20}
}

func TestCompileAndRun(t *testing.T) {
	c := NewCompiler()
	code, err := c.Compile(twoBlockProgram())
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if code.Size() == 0 {
		t.Fatal("Compile produced no code")
	}
	f := newFrame()
	code.Run(f, 0)

	if f.Status != StatusHalt {
		t.Fatalf("Status = %d, want StatusHalt", f.Status)
	}
	if f.IntRegs[0] != 7 || f.IntRegs[9] != 5 || f.IntRegs[2] != 12 {
		t.Errorf("IntRegs = r0:%d r9:%d r2:%d, want 7, 5, 12", f.IntRegs[0], f.IntRegs[9], f.IntRegs[2])
	}
	if f.Retired != 5 {
		t.Errorf("Retired = %d, want 5 (wholesale per-block accounting)", f.Retired)
	}
	if f.UntilSnap != 1<<20-5 {
		t.Errorf("UntilSnap = %d, want %d", f.UntilSnap, 1<<20-5)
	}
}

// TestHeadGuards drives the fused fast-path head check to each of its
// exits: budget exhausted, block would overrun the budget, block would
// cross the snapshot countdown — all bounce to the slow path naming the
// blocked block (the driver's per-instruction path re-derives whether
// that means truncation or a snapshot). On a guard exit nothing may have
// retired.
func TestHeadGuards(t *testing.T) {
	c := NewCompiler()
	code, err := c.Compile(twoBlockProgram())
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	f := newFrame()
	f.Retired = f.MaxInstr // budget already spent
	code.Run(f, 0)
	if f.Status != StatusSlow || f.NextBlock != 0 {
		t.Errorf("retired == maxInstr: Status = %d NextBlock = %d, want slow at block 0", f.Status, f.NextBlock)
	}
	if f.Retired != f.MaxInstr {
		t.Errorf("retired == maxInstr: Retired = %d, want unchanged %d", f.Retired, f.MaxInstr)
	}

	f = newFrame()
	f.MaxInstr = 3 // block 0 retires 4 > 3 remaining
	code.Run(f, 0)
	if f.Status != StatusSlow || f.NextBlock != 0 {
		t.Errorf("budget straddle: Status = %d NextBlock = %d, want slow at block 0", f.Status, f.NextBlock)
	}
	if f.Retired != 0 || f.UntilSnap != 1<<20 {
		t.Errorf("guard exit retired anyway: retired=%d untilSnap=%d", f.Retired, f.UntilSnap)
	}

	f = newFrame()
	f.UntilSnap = 4 // count >= untilSnap forces the snapshotting slow path
	code.Run(f, 0)
	if f.Status != StatusSlow || f.NextBlock != 0 {
		t.Errorf("snapshot straddle: Status = %d NextBlock = %d, want slow at block 0", f.Status, f.NextBlock)
	}

	// Countdown 5 clears block 0 (4 < 5) but leaves 1, so the halt block's
	// count >= untilSnap guard bounces it to the snapshotting slow path.
	f = newFrame()
	f.UntilSnap = 5
	code.Run(f, 0)
	if f.Status != StatusSlow || f.NextBlock != 1 || f.Retired != 4 || f.UntilSnap != 1 {
		t.Errorf("countdown 5: Status=%d NextBlock=%d Retired=%d UntilSnap=%d, want slow at block 1 after retiring 4",
			f.Status, f.NextBlock, f.Retired, f.UntilSnap)
	}

	// Countdown 6 clears both blocks wholesale.
	f = newFrame()
	f.UntilSnap = 6
	code.Run(f, 0)
	if f.Status != StatusHalt || f.UntilSnap != 1 {
		t.Errorf("countdown 6: Status = %d UntilSnap = %d, want halt with 1 left", f.Status, f.UntilSnap)
	}

	// The table's headroom caps the countdown as the budget and the
	// snapshot do: with room for four more words, block 0's four
	// instructions go to the slow path untouched.
	f = newFrame()
	f.Headroom = 4
	code.Run(f, 0)
	if f.Status != StatusSlow || f.NextBlock != 0 || f.Retired != 0 || f.UntilSnap != 1<<20 {
		t.Errorf("headroom 4: Status=%d NextBlock=%d Retired=%d UntilSnap=%d, want slow at block 0 with nothing retired",
			f.Status, f.NextBlock, f.Retired, f.UntilSnap)
	}
}

// TestHeadsAndBranchesKeepNoBooks pins what native code spends on
// control flow: nothing the digest does not read. A block head is exactly
// SUB r12, count; JBE to the block's own stub, with the block's first
// lowered instruction right behind it, and a conditional branch between
// pinned registers is exactly CMP a, b in register form and a Jcc to its
// target's head — no execution counter, no branch counter, no memory
// operand.
func TestHeadsAndBranchesKeepNoBooks(t *testing.T) {
	// Twenty blocks, one of them too long for an 8-bit count, each some
	// adds and a bne back to itself; the last halts. r2 and r3 are the most
	// used registers, so they are pinned.
	p := &prog.Program{}
	const nb = 20
	for bi := 0; bi < nb; bi++ {
		n := 1 + bi%3
		if bi == 17 {
			n = 130
		}
		start := uint32(len(p.Code))
		for i := 0; i < n; i++ {
			p.Code = append(p.Code, prog.Instr{Op: isa.OpAdd, Dst: 2, A: 3, B: 2})
		}
		if bi < nb-1 {
			p.Code = append(p.Code, prog.Instr{Op: isa.OpBne, A: 2, B: 3, Target: uint32(bi)})
		} else {
			p.Code = append(p.Code, prog.Instr{Op: isa.OpHalt})
		}
		p.Blocks = append(p.Blocks, prog.Block{Start: start, Len: uint32(len(p.Code)) - start})
	}
	c := NewCompiler()
	code, err := c.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	if c.regMap[2] < 0 || c.regMap[3] < 0 {
		t.Fatalf("register map %v: want r2 and r3 pinned", c.regMap)
	}
	text := code.Text()
	rel32 := func(at int) int { return at + 4 + int(int32(binary.LittleEndian.Uint32(text[at:]))) }
	// The encoder's lowering of the add, under the same register map.
	ref := NewCompiler()
	ref.regMap = c.regMap
	ref.ensure(regionMax)
	if err := ref.emitInstr(&p.Code[0], nb); err != nil {
		t.Fatal(err)
	}
	add := ref.buf[:ref.pos]

	for bi, b := range p.Blocks {
		at := int(c.heads[bi])
		var head []byte
		if b.Len > 127 {
			head = binary.LittleEndian.AppendUint32([]byte{0x49, 0x81, 0xEC}, b.Len) // SUB r12, imm32
		} else {
			head = []byte{0x49, 0x83, 0xEC, byte(b.Len)} // SUB r12, imm8
		}
		head = append(head, 0x0F, 0x86) // JBE rel32
		if !bytes.Equal(text[at:at+len(head)], head) {
			t.Fatalf("block %d: head starts % x, want % x", bi, text[at:at+len(head)], head)
		}
		at += len(head)
		if got := rel32(at); got != int(c.slow[bi]) {
			t.Errorf("block %d: the guard branches to %d, the block's stub is at %d", bi, got, c.slow[bi])
		}
		at += 4
		if !bytes.Equal(text[at:at+len(add)], add) {
			t.Errorf("block %d: the head is followed by % x, want the add's % x", bi, text[at:at+len(add)], add)
		}
		if bi == nb-1 {
			continue
		}
		// The bne is the last thing before the next block's head.
		br := text[int(c.heads[bi+1])-9 : c.heads[bi+1]]
		if br[0]&0xF0 != 0x40 || br[1] != 0x3B || br[2]&0xC0 != 0xC0 || br[3] != 0x0F || br[4] != 0x85 {
			t.Errorf("block %d: the branch ends % x, want CMP reg, reg; JNE rel32 and nothing else", bi, br)
		}
		if got := rel32(int(c.heads[bi+1]) - 4); got != int(c.heads[bi]) {
			t.Errorf("block %d: the branch goes to %d, its target's head is at %d", bi, got, c.heads[bi])
		}
	}
}

// TestResumeMidProgram enters at a non-zero block, the driver's re-entry
// pattern after a slow-path block.
func TestResumeMidProgram(t *testing.T) {
	c := NewCompiler()
	code, err := c.Compile(twoBlockProgram())
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	f := newFrame()
	code.Run(f, 1) // skip straight to the halt block
	if f.Status != StatusHalt || f.Retired != 1 || f.IntRegs[2] != 0 {
		t.Errorf("resume at block 1: Status=%d Retired=%d r2=%d", f.Status, f.Retired, f.IntRegs[2])
	}
}

func TestCompileRejectsBadPrograms(t *testing.T) {
	c := NewCompiler()
	if _, err := c.Compile(&prog.Program{
		Code:   []prog.Instr{{Op: isa.OpJmp, Target: 7}},
		Blocks: []prog.Block{{Start: 0, Len: 1}},
	}); err == nil {
		t.Error("out-of-range branch target compiled")
	}
	for _, op := range []isa.Opcode{isa.OpInvalid, 14, isa.FuseBase, 250} {
		if _, err := c.Compile(&prog.Program{
			Code:   []prog.Instr{{Op: op}, {Op: isa.OpHalt}},
			Blocks: []prog.Block{{Start: 0, Len: 2}},
		}); err == nil {
			t.Errorf("opcode %v compiled", op)
		}
	}
	if _, err := c.Compile(&prog.Program{Blocks: make([]prog.Block, maxBlocks+1)}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized block table: err = %v, want ErrTooLarge", err)
	}
}

// TestFToIRoutine runs ftoi's shared clamp at and beside each of its
// edges: NaN -> 0, f >= 2^63 -> MaxInt64, f <= -2^63 -> 1<<63, anything
// else truncated toward zero (vm.clampToInt64).
func TestFToIRoutine(t *testing.T) {
	code, err := NewCompiler().Compile(&prog.Program{
		Code:   []prog.Instr{{Op: isa.OpFToI, Dst: 2, A: 5}, {Op: isa.OpHalt}},
		Blocks: []prog.Block{{Len: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	const two63 = 1 << 63
	below := math.Nextafter(two63, 0) // the largest double under 2^63
	for _, tc := range []struct {
		bits uint64
		want int64
	}{
		{canonicalNaN, 0},
		{0xfff8000000000001, 0}, // a NaN with the sign bit
		{math.Float64bits(math.Inf(1)), math.MaxInt64},
		{math.Float64bits(math.Inf(-1)), math.MinInt64},
		{math.Float64bits(two63), math.MaxInt64},
		{math.Float64bits(below), int64(below)},
		{math.Float64bits(-two63), math.MinInt64},
		{math.Float64bits(-below), -int64(below)},
		{math.Float64bits(1e300), math.MaxInt64},
		{math.Float64bits(-1e300), math.MinInt64},
		{math.Float64bits(0), 0},
		{math.Float64bits(math.Copysign(0, -1)), 0},
		{math.Float64bits(1.9), 1},
		{math.Float64bits(-1.9), -1},
		{math.Float64bits(-0.5), 0},
	} {
		f := newFrame()
		f.FPRegs[5] = tc.bits
		code.Run(f, 0)
		if f.Status != StatusHalt || int64(f.IntRegs[2]) != tc.want {
			t.Errorf("ftoi %#x (%g) = %d (status %d), want %d", tc.bits, math.Float64frombits(tc.bits), int64(f.IntRegs[2]), f.Status, tc.want)
		}
	}
}

// TestRecompileReusesMapping compiles twice through one Compiler and runs
// the second program: the stamps through the mapping's write view must
// fully replace the old code.
func TestRecompileReusesMapping(t *testing.T) {
	c := NewCompiler()
	if _, err := c.Compile(twoBlockProgram()); err != nil {
		t.Fatalf("first Compile: %v", err)
	}
	code, err := c.Compile(&prog.Program{
		Code:   []prog.Instr{{Op: isa.OpMovI, Dst: 3, Imm: 41}, {Op: isa.OpAddI, Dst: 3, A: 3, Imm: 1}, {Op: isa.OpHalt}},
		Blocks: []prog.Block{{Start: 0, Len: 3}},
	})
	if err != nil {
		t.Fatalf("second Compile: %v", err)
	}
	f := newFrame()
	code.Run(f, 0)
	if f.Status != StatusHalt || f.IntRegs[3] != 42 {
		t.Errorf("recompiled code: Status=%d r3=%d, want halt with 42", f.Status, f.IntRegs[3])
	}
}

// TestArenaIsTheMapping: the compiler stamps into the writable view of
// its code mapping — there is no second buffer to copy from — and a
// program that outgrows the mapping moves it, mid-stamp, to one twice as
// large with what was stamped so far carried across.
func TestArenaIsTheMapping(t *testing.T) {
	c := NewCompiler()
	compile := func(p *prog.Program, wantSize int) {
		t.Helper()
		code, err := c.Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(c.buf) != wantSize || len(c.mapped) != wantSize {
			t.Fatalf("arena %d bytes, executable view %d, want both %d", len(c.buf), len(c.mapped), wantSize)
		}
		if &c.buf[0] == &c.mapped[0] {
			t.Fatal("the arena is the executable view itself: one page both writable and executable")
		}
		// A byte stored through the arena is what the executable view reads.
		at := code.Size()
		c.buf[at] ^= 0xA5
		seen := c.mapped[at]
		c.buf[at] ^= 0xA5
		if seen != c.buf[at]^0xA5 {
			t.Fatal("a store through the arena is not seen through the executable view")
		}
		ref := NewCompiler()
		ref.regMap = c.regMap
		want, err := ref.encodeProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(code.Text(), want) {
			t.Fatalf("installed code differs from the encoder's: %s", firstDifference(code.Text(), want))
		}
		f := newFrame()
		code.Run(f, 0)
		if f.Status != StatusHalt || f.IntRegs[2] != 1 {
			t.Fatalf("Status=%d r2=%d, want halt with 1", f.Status, f.IntRegs[2])
		}
	}
	addOne := prog.Instr{Op: isa.OpAddI, Dst: 2, A: 2, Imm: 1}
	compile(sweepProgram(addOne, 0, 10), 1<<16)
	compile(sweepProgram(addOne, 0, 1<<12), 1<<17)
	if size := c.code.Size(); size <= 1<<16 {
		t.Fatalf("the large program is %d bytes: it does not outgrow the first mapping", size)
	}
	compile(sweepProgram(addOne, 0, 10), 1<<17) // the mapping keeps its high-water size
}

// TestAllocRegsPinsMostUsed pins the register-assignment policy other
// suites build on (vm's TestMemoryTemplates chooses its pinned and
// frame-resident registers by it): the eight most-referenced integer
// registers, as the builder counts them in Program.Uses, get hardware
// registers, ties going to the lower index.
func TestAllocRegsPinsMostUsed(t *testing.T) {
	b := refprog.NewBuilder(prog.MinMemSize, 0)
	b.NewBlock()
	for r := uint8(8); r < 14; r++ { // six heavy users among the high registers
		for i := 0; i < 5; i++ {
			b.Op2(isa.OpMov, r, r)
		}
	}
	b.Load(2, 3, 0)  // r2, r3: one reference each
	b.Store(3, 2, 0) // ...now two
	b.FLoad(5, 0, 0) // Dst names an FP register: only r0 counts
	b.Halt()
	c := NewCompiler()
	c.allocRegs(b.MustBuild())
	for r, phys := range c.regMap {
		want := r >= 8 && r < 14 || r == 2 || r == 3
		if (phys >= 0) != want {
			t.Errorf("r%d pinned = %v, want %v (map %v)", r, phys >= 0, want, c.regMap)
		}
	}
}

// memFrame is a Frame over a scratch memory of its own, laid out as vm
// lays out a Machine's: a written filter of FilterWords words, which the
// routines index up to its last word whatever the image, and a
// written-word table of 16-byte {key, value} slots.
type memFrame struct {
	f       *Frame
	written []uint64
	table   []tableSlot
}

type tableSlot struct{ key, val uint64 }

const (
	memFrameSeed  = 0x1234_5678_9abc_def0
	memFrameEpoch = 5 << 32
)

func newMemFrame(words, slots int) *memFrame {
	mf := &memFrame{
		written: make([]uint64, FilterWords),
		table:   make([]tableSlot, slots),
	}
	mf.f = newFrame()
	mf.f.Written = uintptr(unsafe.Pointer(&mf.written[0]))
	mf.f.SeedGamma = memFrameSeed + rng.SplitMix64Gamma
	mf.f.MaskAligned = uint64(words*8-1) &^ 7
	mf.f.Table = uintptr(unsafe.Pointer(&mf.table[0]))
	mf.f.TableMask = uint64(slots-1) << 4
	mf.f.TableShift = uint64(60 - bits.TrailingZeros(uint(slots)))
	mf.f.Epoch = memFrameEpoch
	mf.f.Headroom = uint64(slots / 2)
	return mf
}

// home is word w's home slot in a table of the given size.
func home(w uint64, slots int) int {
	return int(w * rng.SplitMix64Gamma >> (64 - bits.TrailingZeros(uint(slots))))
}

// TestMemRoutines enters the shared load and store routines through one
// site of each kind and checks the model word by word against a table
// kept here by hand:
//   - a load of a word no store touched computes SplitMix64At and reads
//     nothing, though a stale slot of the same word sits at its home;
//   - the first store to a word sets exactly its bit and inserts it in the
//     first empty slot from its home, counted in Inserts;
//   - a second store overwrites that slot and inserts nothing;
//   - words sharing a home slot — the table's last, so the probe wraps to
//     slot 0 — take consecutive slots and read back through the probe;
//   - a slot keyed by an earlier epoch is empty, whatever index it names;
//   - in this 4 MiB image word 72 + 2^18 shares word 72's filter bit: its
//     load probes to an empty slot and computes the pristine word, its
//     store inserts it, and word 72 keeps its own value;
//   - addresses wrap to the image and align down;
//   - the value register may be the address register, and neither routine
//     disturbs a pinned or a frame-resident register it was not asked to
//     write;
//   - both routines reach the filter through R13, which the prologue loads
//     with Frame.Written, and never read Frame.Written themselves; the
//     pristine path takes its three multipliers RIP-relative from the pool
//     ahead of the load routine, and neither routine has a 64-bit
//     immediate.
//
// The whole table is compared with the hand-kept one at the end, so a
// store that lands in any other slot fails too.
func TestMemRoutines(t *testing.T) {
	const words, slots = 1 << 19, 256 // a 4 MiB image: two words a filter bit
	const alias = 72 + 1<<18          // shares word 72's bit
	// Three words whose home is the last slot, and a word whose home
	// holds a stale key of its own: none of them anything else the program
	// touches.
	used := map[uint64]bool{5: true, 6: true, 15: true, 16: true, 70: true, 72: true, 73: true, alias: true}
	var wrap []uint64
	stale := uint64(0)
	for w := uint64(100); w < words && (len(wrap) < 3 || stale == 0); w++ {
		switch h := home(w, slots); {
		case h == slots-1 && len(wrap) < 3:
			wrap = append(wrap, w)
		case stale == 0 && h > 8 && h < slots-8:
			stale = w
		}
	}
	if len(wrap) < 3 || stale == 0 {
		t.Fatal("no words with the homes the test needs")
	}
	for _, w := range append(wrap, stale) {
		if used[w] {
			t.Fatalf("word %d is used twice", w)
		}
	}

	// Ten references to each of r0..r7 pin those; r8..r10 stay in the
	// frame, and r11..r15 are bystanders.
	var instrs []prog.Instr
	for r := uint8(0); r < 8; r++ {
		for i := 0; i < 5; i++ {
			instrs = append(instrs, prog.Instr{Op: isa.OpMov, Dst: r, A: r})
		}
	}
	at := func(w uint64) int64 { return int64(8 * w) }
	instrs = append(instrs, []prog.Instr{
		{Op: isa.OpMovI, Dst: 1, Imm: 8*70 + 3},        // unaligned: word 70
		{Op: isa.OpMovI, Dst: 9, Imm: 8 * (words + 5)}, // past the end: wraps to word 5
		{Op: isa.OpMovI, Dst: 2, Imm: 0x2222},
		{Op: isa.OpLoad, Dst: 3, A: 1},           // pristine word 70
		{Op: isa.OpLoad, Dst: 10, A: 9, Imm: 8},  // pristine word 6, frame registers
		{Op: isa.OpStore, A: 1, B: 2, Imm: 16},   // word 72 := 0x2222, inserted
		{Op: isa.OpStore, A: 9, B: 9},            // word 5 := its own address
		{Op: isa.OpLoad, Dst: 4, A: 1, Imm: 16},  // word 72 back
		{Op: isa.OpMovI, Dst: 2, Imm: 0x3333},    //
		{Op: isa.OpStore, A: 1, B: 2, Imm: 16},   // word 72 := 0x3333, overwritten
		{Op: isa.OpLoad, Dst: 0, A: 1, Imm: 16},  // word 72 back again
		{Op: isa.OpLoad, Dst: 1, A: 1, Imm: 24},  // pristine word 73, into the address register
		{Op: isa.OpFStore, A: 9, B: 7, Imm: 80},  // word 15 := f7
		{Op: isa.OpFLoad, Dst: 6, A: 9, Imm: 80}, // f6 := word 15
		{Op: isa.OpFLoad, Dst: 5, A: 9, Imm: 88}, // f5 := pristine word 16
		{Op: isa.OpMovI, Dst: 5, Imm: at(stale)}, //
		{Op: isa.OpLoad, Dst: 8, A: 5},           // pristine, past the stale slot of its own index
		{Op: isa.OpStore, A: 5, B: 2},            // stale word := 0x3333, into the stale slot
		{Op: isa.OpFLoad, Dst: 4, A: 5},          // f4 := it
	}...)
	for _, w := range wrap { // each word := its address; then read back in reverse
		instrs = append(instrs,
			prog.Instr{Op: isa.OpMovI, Dst: 6, Imm: at(w)},
			prog.Instr{Op: isa.OpStore, A: 6, B: 6})
	}
	for i := len(wrap) - 1; i >= 0; i-- {
		instrs = append(instrs,
			prog.Instr{Op: isa.OpMovI, Dst: 6, Imm: at(wrap[i])},
			prog.Instr{Op: isa.OpFLoad, Dst: uint8(i), A: 6})
	}
	instrs = append(instrs, []prog.Instr{
		{Op: isa.OpMovI, Dst: 6, Imm: at(alias)}, //
		{Op: isa.OpLoad, Dst: 7, A: 6},           // pristine, though its bit is set
		{Op: isa.OpStore, A: 6, B: 6},            // alias := its address, inserted
		{Op: isa.OpFLoad, Dst: 3, A: 6},          // f3 := it
		{Op: isa.OpMovI, Dst: 6, Imm: at(72)},    //
		{Op: isa.OpLoad, Dst: 5, A: 6},           // word 72, untouched by the alias
		{Op: isa.OpHalt},
	}...)
	if n := len(instrs); n >= slots/2 {
		t.Fatalf("a %d-instruction block does not fit under the table's headroom", n)
	}

	c := NewCompiler()
	code, err := c.Compile(&prog.Program{Code: instrs, Blocks: []prog.Block{{Len: uint32(len(instrs))}}})
	if err != nil {
		t.Fatal(err)
	}
	if c.regMap[1] < 0 || c.regMap[2] < 0 || c.regMap[5] < 0 || c.regMap[6] < 0 || c.regMap[9] >= 0 || c.regMap[10] >= 0 || c.regMap[8] >= 0 {
		t.Fatalf("register map %v: want r1, r2, r5, r6 pinned and r8, r9, r10 frame-resident", c.regMap)
	}
	mf := newMemFrame(words, slots)
	// Stale slots no load may see and every insert may take: the stale
	// word's own index at its home, and unrelated indices of two earlier
	// epochs, one of them the largest key below this epoch, at the wrapping
	// chain's slots.
	mf.table[home(stale, slots)] = tableSlot{memFrameEpoch - 1<<32 | stale, 0xdead}
	mf.table[slots-1] = tableSlot{memFrameEpoch - 1, 0xdead}
	mf.table[0] = tableSlot{3<<32 | 70, 0xdead}
	want := slices.Clone(mf.table)
	mf.f.FPRegs[7] = 0x4045000000000000 // 42.0
	for r := range mf.f.IntRegs {
		if r > 10 {
			mf.f.IntRegs[r] = 0xf00 + uint64(r) // bystanders
		}
	}
	code.Run(mf.f, 0)
	if mf.f.Status != StatusHalt {
		t.Fatalf("Status = %d, want halt", mf.f.Status)
	}

	// The table by hand: each inserted word in the first slot from its
	// home whose key is below this epoch.
	insert := func(w, v uint64) {
		for h := home(w, slots); ; h = (h + 1) % slots {
			if want[h].key < memFrameEpoch {
				want[h] = tableSlot{memFrameEpoch | w, v}
				return
			}
		}
	}
	insert(72, 0x3333)
	insert(5, 8*(words+5))
	insert(15, 0x4045000000000000)
	insert(stale, 0x3333)
	for _, w := range wrap {
		insert(w, 8*w)
	}
	insert(alias, 8*alias)

	pristine := func(w uint64) uint64 { return rng.SplitMix64At(memFrameSeed, w) }
	f := mf.f
	for _, chk := range []struct {
		what      string
		got, want uint64
	}{
		{"load of pristine word 70 (unaligned address)", f.IntRegs[3], pristine(70)},
		{"load of pristine word 6 (wrapped address, frame registers)", f.IntRegs[10], pristine(6)},
		{"load of stored word 72", f.IntRegs[4], 0x2222},
		{"load of overwritten word 72", f.IntRegs[0], 0x3333},
		{"load into its own address register", f.IntRegs[1], pristine(73)},
		{"fload of stored word 15", f.FPRegs[6], 0x4045000000000000},
		{"load of a word with a stale slot of its own", f.IntRegs[8], pristine(stale)},
		{"fload of that word once stored", f.FPRegs[4], 0x3333},
		{"fload of the first word homed at the last slot", f.FPRegs[0], 8 * wrap[0]},
		{"fload of the second, past the table's end", f.FPRegs[1], 8 * wrap[1]},
		{"fload of the third", f.FPRegs[2], 8 * wrap[2]},
		{"load of the word sharing word 72's bit", f.IntRegs[7], pristine(alias)},
		{"fload of that word once stored", f.FPRegs[3], 8 * alias},
		{"load of word 72 after its alias was stored", f.IntRegs[5], 0x3333},
		{"inserts", f.Inserts, 8},
		{"address register r9 after the stores", f.IntRegs[9], 8 * (words + 5)},
		{"value register r2 after the store", f.IntRegs[2], 0x3333},
	} {
		if chk.got != chk.want {
			t.Errorf("%s = %#x, want %#x", chk.what, chk.got, chk.want)
		}
	}
	for i := range want {
		if mf.table[i] != want[i] {
			t.Errorf("slot %d = %#x, want %#x", i, mf.table[i], want[i])
		}
	}
	var bitsSet []uint64
	for i, m := range mf.written {
		for m != 0 {
			bitsSet = append(bitsSet, uint64(i*64+bits.TrailingZeros64(m)))
			m &= m - 1
		}
	}
	var wantBits []uint64 // each stored word's bit: its index mod 2^18
	for _, w := range append([]uint64{5, 15, 72, stale, alias}, wrap...) {
		wantBits = append(wantBits, w%(FilterWords*64))
	}
	slices.Sort(wantBits)
	wantBits = slices.Compact(wantBits)
	if !slices.Equal(bitsSet, wantBits) {
		t.Errorf("written filter sets bits %v, want %v", bitsSet, wantBits)
	}
	// fload canonicalizes a pristine word only if it encodes a NaN.
	if w := pristine(16); w&0x7ff0000000000000 != 0x7ff0000000000000 && f.FPRegs[5] != w {
		t.Errorf("fload of pristine word 16 = %#x, want %#x", f.FPRegs[5], w)
	}
	for r := 11; r < isa.NumIntRegs; r++ {
		if f.IntRegs[r] != 0xf00+uint64(r) {
			t.Errorf("bystander r%d = %#x, want %#x", r, f.IntRegs[r], 0xf00+uint64(r))
		}
	}
	if len(code.LoadRoutine()) == 0 || len(code.StoreRoutine()) == 0 || code.BlockSize(0) == 0 {
		t.Fatalf("code sections: load %d, store %d, block 0 %d bytes; want all present",
			len(code.LoadRoutine()), len(code.StoreRoutine()), code.BlockSize(0))
	}

	// How the routines reach their operands.
	load, store := code.LoadRoutine(), code.StoreRoutine()
	pool := code.loadAt - 24
	for i, k := range []uint64{rng.SplitMix64Gamma, rng.SplitMix64Mul1, rng.SplitMix64Mul2} {
		if got := binary.LittleEndian.Uint64(code.text[pool+8*i:]); got != k {
			t.Errorf("pool word %d = %#x, want %#x", i, got, k)
		}
	}
	imulRIP := []byte{0x48, 0x0F, 0xAF, 0x15} // IMUL rdx, [rip+disp32]
	var multipliers []int
	for at := 0; at+8 <= len(load); at++ {
		if bytes.Equal(load[at:at+4], imulRIP) {
			next := code.loadAt + at + 8
			multipliers = append(multipliers, next+int(int32(binary.LittleEndian.Uint32(load[at+4:])))-pool)
		}
	}
	for name, routine := range map[string][]byte{"load": load, "store": store} {
		for at := 0; at+2 <= len(routine); at++ {
			if routine[at]&0xF8 == 0x48 && routine[at+1]&0xF8 == 0xB8 {
				t.Errorf("%s routine has a MOV r64, imm64 at %d: % x", name, at, routine[at:])
			}
		}
	}
	if !slices.Equal(multipliers, []int{0, 8, 16}) {
		t.Errorf("the load routine's RIP-relative IMULs read pool offsets %v, want [0 8 16]", multipliers)
	}
	enc := &Compiler{}
	enc.ensure(16)
	enc.opRM(0x8B, rCX, r15, offWritten)
	readWritten := enc.buf[:enc.pos]
	for name, routine := range map[string][]byte{"load": load, "store": store} {
		if bytes.Contains(routine, readWritten) {
			t.Errorf("%s routine reads Frame.Written (% x)", name, readWritten)
		}
	}
	if !bytes.Contains(load, []byte{0x49, 0x8B, 0x4C, 0xD5, 0x00}) { // MOV rcx, [r13+rdx*8]
		t.Errorf("load routine does not read the filter word through R13: % x", load)
	}
	if !bytes.Contains(store, []byte{0x49, 0x8D, 0x4C, 0xD5, 0x00}) { // LEA rcx, [r13+rdx*8]
		t.Errorf("store routine does not address the filter word through R13: % x", store)
	}
}

// sweepRegMap is a register assignment with every residency kind present
// twice: r2, r3 in low hardware registers, r8, r9 in high ones, r5, r6 in
// frame slots a short displacement reaches and r0, r1 in slots that need a
// long one.
func sweepRegMap() [isa.NumIntRegs]int8 {
	var m [isa.NumIntRegs]int8
	for r := range m {
		m[r] = -1
	}
	m[2], m[3], m[12], m[13] = rBX, rBP, rSI, rDI
	m[8], m[9], m[14], m[15] = r8, r9, r10, r11
	return m
}

// stampedVsEncoded lays p out under regMap by stamping (on c) and by the
// encoder alone (on ref) and returns both results.
func stampedVsEncoded(t testing.TB, c, ref *Compiler, regMap [isa.NumIntRegs]int8, p *prog.Program) (stamped, encoded []byte) {
	t.Helper()
	c.regMap, ref.regMap = regMap, regMap
	encoded, refErr := ref.encodeProgram(p)
	_, _, err := c.stampProgram(p)
	if (err != nil) != (refErr != nil) {
		t.Fatalf("stampProgram error = %v, encoder error = %v", err, refErr)
	}
	if err != nil {
		return nil, nil
	}
	return c.buf[:c.pos], encoded
}

// TestStampedEqualsEncoded sweeps every opcode over every combination of
// operand residency — each of Dst, A and B pinned low, pinned high, in a
// short-displacement and in a long-displacement frame slot, with Dst == A
// and without — and over immediates on both sides of every width
// boundary, and requires the stamped code to equal the encoder's byte for
// byte. Each instruction is its own program, so a failure names it; the
// block it sits in varies in index and (padded with halts) in length, to
// cover every head and stub form. TestStampedEqualsEncodedOnWidgets does
// the same for whole generated programs.
func TestStampedEqualsEncoded(t *testing.T) {
	c, ref, regMap := NewCompiler(), NewCompiler(), sweepRegMap()
	regs := []uint8{2, 3, 8, 9, 5, 6, 0, 1}
	imms := []int64{0, 1, -1, 127, -128, 128, -129, 1<<31 - 1, -1 << 31, 1 << 31, -1<<31 - 1, 1<<63 - 1, -1 << 63}
	shapes := []struct{ before, pad int }{{0, 0}, {20, 0}, {3, 130}, {17, 200}}
	n := 0
	for op := isa.Opcode(0); op < numOps+2; op++ {
		for _, d := range regs {
			for _, a := range regs {
				for _, b := range regs {
					for ii, imm := range imms {
						if ii > 1 && !op.HasImm() {
							break // one zero and one non-zero immediate show it is ignored
						}
						sh := shapes[n%len(shapes)]
						n++
						p := sweepProgram(prog.Instr{Op: op, Dst: d, A: a, B: b, Imm: imm, Target: uint32(sh.before)}, sh.before, sh.pad)
						got, want := stampedVsEncoded(t, c, ref, regMap, p)
						if !bytes.Equal(got, want) {
							t.Fatalf("%v dst=r%d a=r%d b=r%d imm=%#x in block %d of %d instructions: %s",
								op, d, a, b, imm, sh.before, 1+sh.pad, firstDifference(got, want))
						}
					}
				}
			}
		}
	}
	t.Logf("%d single-instruction programs", n)
}

// firstDifference renders the neighbourhood of the first byte at which two
// code images differ.
func firstDifference(stamped, encoded []byte) string {
	at := 0
	for at < len(stamped) && at < len(encoded) && stamped[at] == encoded[at] {
		at++
	}
	window := func(b []byte) []byte { return b[max(at-8, 0):min(at+24, len(b))] }
	return fmt.Sprintf("%d stamped and %d encoded bytes differ at %d:\nstamped ...% x\nencoded ...% x",
		len(stamped), len(encoded), at, window(stamped), window(encoded))
}

// sweepProgram puts ins in a block of its own after `before` single-halt
// blocks, followed in its block by `pad` halts and then by a final halt
// block.
func sweepProgram(ins prog.Instr, before, pad int) *prog.Program {
	p := &prog.Program{}
	for i := 0; i < before; i++ {
		p.Blocks = append(p.Blocks, prog.Block{Start: uint32(len(p.Code)), Len: 1})
		p.Code = append(p.Code, prog.Instr{Op: isa.OpHalt})
	}
	p.Blocks = append(p.Blocks, prog.Block{Start: uint32(len(p.Code)), Len: uint32(1 + pad)})
	p.Code = append(p.Code, ins)
	for i := 0; i < pad; i++ {
		p.Code = append(p.Code, prog.Instr{Op: isa.OpHalt})
	}
	p.Blocks = append(p.Blocks, prog.Block{Start: uint32(len(p.Code)), Len: 1})
	p.Code = append(p.Code, prog.Instr{Op: isa.OpHalt})
	return p
}

// TestStampedDegenerateBlocks covers the blocks with nothing to stamp but
// a head: empty blocks stamp as the encoder lowers them, and a program
// whose last block falls off its end — by a conditional branch not taken,
// or by having no instructions at all — does not compile.
func TestStampedDegenerateBlocks(t *testing.T) {
	c, ref := NewCompiler(), NewCompiler()
	empty := &prog.Program{
		Code:   []prog.Instr{{Op: isa.OpMovI, Dst: 2, Imm: 9}, {Op: isa.OpHalt}},
		Blocks: []prog.Block{{Start: 0, Len: 0}, {Start: 0, Len: 1}, {Start: 1, Len: 0}, {Start: 1, Len: 0}, {Start: 1, Len: 1}},
	}
	got, want := stampedVsEncoded(t, c, ref, sweepRegMap(), empty)
	if len(got) == 0 || !bytes.Equal(got, want) {
		t.Errorf("empty blocks: %s", firstDifference(got, want))
	}
	for name, p := range map[string]*prog.Program{
		"falls off": {
			Code:   []prog.Instr{{Op: isa.OpMovI, Dst: 2, Imm: 9}, {Op: isa.OpBeq, A: 2, B: 3}},
			Blocks: []prog.Block{{Start: 0, Len: 2}},
		},
		"one empty block": {Blocks: []prog.Block{{Start: 0, Len: 0}}},
		"no blocks":       {},
	} {
		if _, err := c.Compile(p); !errors.Is(err, errFallsOff) {
			t.Errorf("%s: Compile error = %v, want %v", name, err, errFallsOff)
		}
	}
}

// TestEveryInstructionStamps holds the template table to the ISA: every
// architectural opcode has a template for every shape its operands can
// take — each integer operand in each residency, Dst == A where the
// lowering has an in-place form, the immediate in each width class — and
// every block length, 0, up to 127 and past it, has a head and a stub that
// stamp as the encoder lowers them. So nothing a valid program contains
// leaves Compile for the encoder.
func TestEveryInstructionStamps(t *testing.T) {
	tab := templates()
	n := 0
	for op := isa.Opcode(0); op < numOps; op++ {
		if !op.Valid() {
			if tab.shapeMask[op] != 0 {
				t.Errorf("%v is not an opcode of the ISA but has shapes", op)
			}
			continue
		}
		// The shape must look at exactly the integer operands.
		files := [3]isa.RegFile{}
		files[0], files[1], files[2] = op.Operands()
		for f, file := range files {
			if got, want := tab.shapeMask[op]>>(2*f)&3 != 0, file == isa.RegInt; got != want {
				t.Errorf("%v: operand %d in file %v, shape looks at it: %v", op, f, file, got)
			}
		}
		if got := tab.shapeMask[op]>>shapeImmShift != 0; got != op.HasImm() {
			t.Errorf("%v: has an immediate: %v, shape looks at it: %v", op, op.HasImm(), got)
		}
		for shape := uint32(0); shape < 1<<shapeBits; shape++ {
			if shape&^uint32(tab.shapeMask[op]) != 0 || !validShape(shape) {
				continue
			}
			if tab.index[uint32(op)<<shapeBits|shape] == 0 {
				t.Errorf("%v has no template for shape %#x", op, shape)
			}
			n++
		}
	}
	t.Logf("%d opcode shapes, %d templates", n, tab.nTmpl-1)

	ref := NewCompiler()
	for _, count := range []uint32{0, 1, 127, 128, 1 << 20} {
		form := blockForm(count)
		for name, bt := range map[string]*blockTmpl{"head": &tab.heads[form], "stub": &tab.stubs[form]} {
			ref.pos, ref.fix = 0, ref.fix[:0]
			ref.ensure(regionMax)
			if name == "head" {
				ref.emitHead(9, int32(count)) // the guard's branch, resolved later, is 0 in both
			} else {
				ref.emitStub(9, int32(count), int(bt.relOff)+4) // a zero displacement to the tail
			}
			want := ref.buf[:ref.pos]
			var got [2 * blockTmplBytes]byte
			bt.stamp(unsafe.Pointer(&got), count, 9)
			if bt.n == 0 || !bytes.Equal(got[:bt.n], want) {
				t.Errorf("block of %d instructions: %s stamps % x, the encoder lowers % x", count, name, got[:bt.n], want)
			}
		}
	}
}

// TestCompileZeroAlloc pins the steady state the hashing session relies
// on: once the arenas have reached a program's size, compiling it again —
// or another program no larger — allocates nothing.
func TestCompileZeroAlloc(t *testing.T) {
	progs := []*prog.Program{twoBlockProgram(), sweepProgram(prog.Instr{Op: isa.OpFToI, Dst: 2, A: 1}, 30, 150)}
	c := NewCompiler()
	compile := func() {
		for _, p := range progs {
			if _, err := c.Compile(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	compile()
	if allocs := testing.AllocsPerRun(20, compile); allocs != 0 {
		t.Errorf("steady-state Compile allocates %v times per run, want 0", allocs)
	}
}

// FuzzStampedVsEncoded draws an instruction, a register assignment and a
// block position from the input and requires the stamped code to equal the
// encoder's. Eight bytes choose which widget registers are pinned (to the
// pool registers in order); the rest are the instruction.
func FuzzStampedVsEncoded(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, uint8(isa.OpAdd), uint8(1), uint8(1), uint8(9), int64(0), uint16(0))
	f.Add([]byte{15, 14, 13, 12, 3, 2, 1, 0}, uint8(isa.OpLoad), uint8(2), uint8(15), uint8(0), int64(-129), uint16(40))
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1}, uint8(isa.OpBne), uint8(0), uint8(1), uint8(5), int64(1)<<40, uint16(300))
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2}, uint8(isa.OpFSqrt), uint8(15), uint8(15), uint8(15), int64(7), uint16(16))
	c, ref := NewCompiler(), NewCompiler()
	f.Fuzz(func(t *testing.T, pins []byte, op, dst, a, b uint8, imm int64, where uint16) {
		var regMap [isa.NumIntRegs]int8
		for r := range regMap {
			regMap[r] = -1
		}
		for i, r := range pins {
			if i < len(physPool) && regMap[r%isa.NumIntRegs] < 0 {
				regMap[r%isa.NumIntRegs] = int8(physPool[i])
			}
		}
		before, pad := int(where%64), int(where/64%4)*60
		ins := prog.Instr{Op: isa.Opcode(op), Dst: dst % 16, A: a % 16, B: b % 16, Imm: imm, Target: uint32(where % 3)}
		got, want := stampedVsEncoded(t, c, ref, regMap, sweepProgram(ins, before, pad))
		if !bytes.Equal(got, want) {
			t.Fatalf("%+v under %v in block %d of %d: %s", ins, regMap, before, 1+pad, firstDifference(got, want))
		}
	})
}
