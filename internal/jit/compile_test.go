//go:build amd64 && linux

package jit

// Unit tests for the code generator, below the vm driver: hand-built
// Programs compiled and entered directly through a Frame. The vm package's
// differential suites (FuzzNativeVsFused and the boundary sweeps) are the
// semantic ground truth; these tests pin the Frame ABI — head-guard exits,
// wholesale accounting, status codes — that the driver relies on.

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"testing"
	"unsafe"

	"hashcore/internal/isa"
	"hashcore/internal/prog"
	"hashcore/internal/rng"
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
// headroom, wired to the given per-block counters.
func newFrame(execs []uint64) *Frame {
	f := &Frame{MaxInstr: 1 << 20, UntilSnap: 1 << 20, Headroom: 1 << 20}
	f.ExecsBase = uintptr(unsafe.Pointer(&execs[0]))
	return f
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
	execs := make([]uint64, 2)
	f := newFrame(execs)
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
	if execs[0] != 1 || execs[1] != 1 {
		t.Errorf("execs = %v, want one fast-path execution of each block", execs)
	}
}

// TestHeadGuards drives the fused fast-path head check to each of its
// exits: budget exhausted, block would overrun the budget, block would
// cross the snapshot countdown — all bounce to the slow path naming the
// blocked block (the driver's per-instruction path re-derives whether
// that means truncation or a snapshot). On a guard exit no accounting may
// have happened.
func TestHeadGuards(t *testing.T) {
	c := NewCompiler()
	code, err := c.Compile(twoBlockProgram())
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	execs := make([]uint64, 2)

	f := newFrame(execs)
	f.Retired = f.MaxInstr // budget already spent
	code.Run(f, 0)
	if f.Status != StatusSlow || f.NextBlock != 0 {
		t.Errorf("retired == maxInstr: Status = %d NextBlock = %d, want slow at block 0", f.Status, f.NextBlock)
	}
	if f.Retired != f.MaxInstr {
		t.Errorf("retired == maxInstr: Retired = %d, want unchanged %d", f.Retired, f.MaxInstr)
	}

	f = newFrame(execs)
	f.MaxInstr = 3 // block 0 retires 4 > 3 remaining
	code.Run(f, 0)
	if f.Status != StatusSlow || f.NextBlock != 0 {
		t.Errorf("budget straddle: Status = %d NextBlock = %d, want slow at block 0", f.Status, f.NextBlock)
	}
	if f.Retired != 0 || execs[0] != 0 {
		t.Errorf("guard exit accounted anyway: retired=%d execs=%v", f.Retired, execs)
	}

	f = newFrame(execs)
	f.UntilSnap = 4 // count >= untilSnap forces the snapshotting slow path
	code.Run(f, 0)
	if f.Status != StatusSlow || f.NextBlock != 0 {
		t.Errorf("snapshot straddle: Status = %d NextBlock = %d, want slow at block 0", f.Status, f.NextBlock)
	}

	// Countdown 5 clears block 0 (4 < 5) but leaves 1, so the halt block's
	// count >= untilSnap guard bounces it to the snapshotting slow path.
	f = newFrame(execs)
	f.UntilSnap = 5
	code.Run(f, 0)
	if f.Status != StatusSlow || f.NextBlock != 1 || f.Retired != 4 || f.UntilSnap != 1 {
		t.Errorf("countdown 5: Status=%d NextBlock=%d Retired=%d UntilSnap=%d, want slow at block 1 after retiring 4",
			f.Status, f.NextBlock, f.Retired, f.UntilSnap)
	}

	// Countdown 6 clears both blocks wholesale.
	f = newFrame(execs)
	f.UntilSnap = 6
	code.Run(f, 0)
	if f.Status != StatusHalt || f.UntilSnap != 1 {
		t.Errorf("countdown 6: Status = %d UntilSnap = %d, want halt with 1 left", f.Status, f.UntilSnap)
	}

	// The table's headroom caps the countdown as the budget and the
	// snapshot do: with room for four more words, block 0's four
	// instructions go to the slow path untouched.
	f = newFrame(execs)
	f.Headroom = 4
	code.Run(f, 0)
	if f.Status != StatusSlow || f.NextBlock != 0 || f.Retired != 0 || f.UntilSnap != 1<<20 {
		t.Errorf("headroom 4: Status=%d NextBlock=%d Retired=%d UntilSnap=%d, want slow at block 0 with nothing retired",
			f.Status, f.NextBlock, f.Retired, f.UntilSnap)
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
	execs := make([]uint64, 2)
	f := newFrame(execs)
	code.Run(f, 1) // skip straight to the halt block
	if f.Status != StatusHalt || f.Retired != 1 || execs[0] != 0 || execs[1] != 1 {
		t.Errorf("resume at block 1: Status=%d Retired=%d execs=%v", f.Status, f.Retired, execs)
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
	if _, err := c.Compile(&prog.Program{
		Code:   []prog.Instr{{Op: isa.Opcode(250)}},
		Blocks: []prog.Block{{Start: 0, Len: 1}},
	}); err == nil {
		t.Error("unknown opcode compiled")
	}
	if _, err := c.Compile(&prog.Program{Blocks: make([]prog.Block, maxBlocks+1)}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized block table: err = %v, want ErrTooLarge", err)
	}
}

// TestRecompileReusesMapping compiles twice through one Compiler and runs
// the second program: the W^X mapping must be safely reprotected and the
// old code fully replaced.
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
	execs := make([]uint64, 1)
	f := newFrame(execs)
	code.Run(f, 0)
	if f.Status != StatusHalt || f.IntRegs[3] != 42 {
		t.Errorf("recompiled code: Status=%d r3=%d, want halt with 42", f.Status, f.IntRegs[3])
	}
}

// TestAllocRegsPinsMostUsed pins the register-assignment policy other
// suites build on (vm's TestMemoryTemplates chooses its pinned and
// frame-resident registers by it): the eight most-referenced integer
// registers get hardware registers, ties going to the lower index.
func TestAllocRegsPinsMostUsed(t *testing.T) {
	var instrs []prog.Instr
	for r := uint8(8); r < 14; r++ { // six heavy users among the high registers
		for i := 0; i < 5; i++ {
			instrs = append(instrs, prog.Instr{Op: isa.OpMov, Dst: r, A: r})
		}
	}
	instrs = append(instrs,
		prog.Instr{Op: isa.OpLoad, Dst: 2, A: 3},  // r2, r3: one reference each
		prog.Instr{Op: isa.OpStore, A: 3, B: 2},   // ...now two
		prog.Instr{Op: isa.OpFLoad, Dst: 5, A: 0}, // Dst names an FP register: only r0 counts
		prog.Instr{Op: isa.OpHalt})
	c := NewCompiler()
	c.allocRegs(&prog.Program{Code: instrs})
	for r, phys := range c.regMap {
		want := r >= 8 && r < 14 || r == 2 || r == 3
		if (phys >= 0) != want {
			t.Errorf("r%d pinned = %v, want %v (map %v)", r, phys >= 0, want, c.regMap)
		}
	}
}

// memFrame is a Frame over a small scratch memory of its own, laid out as
// vm lays out a Machine's: a written map of one bit per word and a
// written-word table of 16-byte {key, value} slots.
type memFrame struct {
	f       *Frame
	written []uint64
	table   []tableSlot
	execs   []uint64
}

type tableSlot struct{ key, val uint64 }

const (
	memFrameSeed  = 0x1234_5678_9abc_def0
	memFrameEpoch = 5 << 32
)

func newMemFrame(words, slots int) *memFrame {
	mf := &memFrame{
		written: make([]uint64, (words+63)/64),
		table:   make([]tableSlot, slots),
		execs:   make([]uint64, 4),
	}
	mf.f = newFrame(mf.execs)
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
//   - addresses wrap to the image and align down;
//   - the value register may be the address register, and neither routine
//     disturbs a pinned or a frame-resident register it was not asked to
//     write.
//
// The whole table is compared with the hand-kept one at the end, so a
// store that lands in any other slot fails too.
func TestMemRoutines(t *testing.T) {
	const words, slots = 4096, 256 // a 32 KiB image, 64 map words
	// Three words whose home is the last slot, and a word whose home
	// holds a stale key of its own: none of them anything else the program
	// touches.
	used := map[uint64]bool{5: true, 6: true, 15: true, 16: true, 70: true, 72: true, 73: true}
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
	instrs = append(instrs, prog.Instr{Op: isa.OpHalt})
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
		{"inserts", f.Inserts, 7},
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
	wantBits := append([]uint64{5, 15, 72}, append(wrap, stale)...)
	slices.Sort(wantBits)
	if !slices.Equal(bitsSet, wantBits) {
		t.Errorf("written map marks words %v, want %v", bitsSet, wantBits)
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
		t.Errorf("code sections: load %d, store %d, block 0 %d bytes; want all present",
			len(code.LoadRoutine()), len(code.StoreRoutine()), code.BlockSize(0))
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

// TestStampedDegenerateBlocks covers what the stamp loops hand to the
// encoder besides long lowerings: empty blocks (head and stub), a last
// block that falls off the program, and a program with no instructions in
// its only block.
func TestStampedDegenerateBlocks(t *testing.T) {
	c, ref := NewCompiler(), NewCompiler()
	for name, p := range map[string]*prog.Program{
		"empty blocks": {
			Code:   []prog.Instr{{Op: isa.OpMovI, Dst: 2, Imm: 9}, {Op: isa.OpHalt}},
			Blocks: []prog.Block{{Start: 0, Len: 0}, {Start: 0, Len: 1}, {Start: 1, Len: 0}, {Start: 1, Len: 0}, {Start: 1, Len: 1}},
		},
		"falls off": {
			Code:   []prog.Instr{{Op: isa.OpMovI, Dst: 2, Imm: 9}, {Op: isa.OpBeq, A: 2, B: 3}},
			Blocks: []prog.Block{{Start: 0, Len: 2}},
		},
		"one empty block": {Blocks: []prog.Block{{Start: 0, Len: 0}}},
	} {
		got, want := stampedVsEncoded(t, c, ref, sweepRegMap(), p)
		if len(got) == 0 || !bytes.Equal(got, want) {
			t.Errorf("%s: %s", name, firstDifference(got, want))
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
