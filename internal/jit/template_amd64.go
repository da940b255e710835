//go:build amd64 && linux

// Copy-and-patch compilation. Lowering a widget instruction is a fixed
// translation: the bytes depend only on the opcode, on where each operand
// lives (a low or a high hardware register, or a frame slot) and on how
// wide the immediate is. So the encoder in compile_amd64.go runs once per
// process over every such shape and leaves a table of byte templates,
// each with the sites where the operands go recorded; Compile then looks
// a template up, copies a fixed number of bytes and patches the operands
// in — no opcode switch, no residency test, no byte-at-a-time emission on
// the hash path.
//
// Patch sites are found by differential encoding: the builder encodes a
// shape twice with one operand changed and takes the bytes that moved.
// The encoder itself is untouched by this file, which is what lets the
// tests use it as the byte-for-byte oracle for everything stamped here
// (TestStampedEqualsEncoded).
//
// A template holds zeros at its sites, so a patch ORs its operand in. The
// immediate and the CALL displacement are stored whole (template bytes from
// the table, operand ORed in, no read of the code buffer). A register
// operand is one byte — the ModRM field of a pinned register, whose REX
// bit is part of the shape, or the low displacement byte of a frame slot,
// a float register or a vector register's first lane — ORed into the
// buffer, so two pinned registers sharing a ModRM compose, and every load
// from the buffer is one byte inside a single earlier store (wider or
// straddling reads of just-written code stall on store forwarding, which
// cost more than the encoder did). A site a template lacks is a patch of
// zero into the slack past the template, which keeps the stamp loop free
// of per-site branches. That loop — a block's head, then shape, lookup,
// copy and patches once per widget instruction, for the whole program in
// one call — is stampBlocks in stamp_amd64.s; the prologue and epilogue
// are constant bytes, and they and the slow stubs are stamped below.
//
// Every shape of every opcode of the ISA has a template
// (TestEveryInstructionStamps), because the lowerings are written to fit
// one: at most tmplBytes long, each operand in one place. What would not —
// ftoi's clamp, vmul's four lanes — is a shared routine the template
// calls, and a vector lowering addresses its lanes off one LEA of the
// register's first lane. So the encoder never runs at hash time; an
// instruction without a template is an opcode outside the ISA, and Compile
// refuses it.
package jit

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"unsafe"

	"hashcore/internal/isa"
	"hashcore/internal/prog"
)

const (
	// tmplBytes is the fixed width copied per lowered instruction; the
	// longest lowering is 59 bytes (vadd, vxor).
	tmplBytes = 64
	// blockTmplBytes is the same for block heads and slow stubs (at most
	// 17 bytes).
	blockTmplBytes = 32

	numOps       = 64   // opcodes below this may have templates (all architectural ones)
	maxTemplates = 2048 // capacity of the table (a power of two); the builder fills about 1,200
)

// A shape is the part of an instruction, beyond its opcode, that selects
// its template: the residency kind of each integer operand (two bits each
// for Dst, A, B), whether Dst and A are one pinned register (the in-place
// two-operand forms) and the width class of the immediate.
const (
	kindPinLow  = 0 // in one of the low eight hardware registers
	kindPinHigh = 1 // in r8..r15: the same encodings with a REX bit set
	kindFrame8  = 2 // frame slot within a signed 8-bit displacement
	numKinds    = 3 // a frame slot past that reach has no template (see pinMap)

	shapeEq       = 1 << 6
	shapeImmShift = 7
	shapeBits     = 9

	// Width classes of an immediate, as the encoder's helpers distinguish
	// them (addImm, aluImm, movImm64, modMem).
	immZero = 0
	immI8   = 1
	immI32  = 2
	immI64  = 3
)

// Operand layouts: what a register operand's byte site takes
// (tmplTable.patch).
const (
	layNone   = 0
	layDisp   = 1 // frame slot: intOff(r), a one-byte displacement
	layFP     = 2 // float register: fpOff(r)
	layPinRM  = 3 // pinned, in ModRM.rm or the low bits of an opcode: p&7
	layPinReg = 4 // pinned, in ModRM.reg: p&7 << 3
	layVec    = 5 // vector register: the low byte of vecOff(r)
)

// template is one lowering with its operands blanked out. Offsets of
// sites the lowering lacks point at the slack past the code, except
// immOff, which stays 0 under a zero immMask.
type template struct {
	code    [tmplBytes]byte
	immMask uint64   // which bytes at immOff take Instr.Imm
	fix     uint32   // fixOff | kind<<fixKindShift: added to the position, a fixup's low half
	n       uint8    // code length
	off     [3]uint8 // byte site of operand field Dst, A, B ...
	lay     [3]uint8 // ... and its layout, pre-shifted to index tmplTable.patch
	immOff  uint8
	callOff uint8 // site of a CALL's rel32
	callSel uint8 // which routine it calls (callLoad...), 0 for none
	nfix    uint8 // 1 when the lowering records a fixup
}

// blockTmpl is a block head or a slow stub, rel the branch between the
// two. The block's instruction count is an operand of both, the block's
// index of a stub only: a head is SUB r12, count; JBE stub, and its idMask
// is zero with idOff in the slack past the code.
type blockTmpl struct {
	code              [blockTmplBytes]byte
	countMask, idMask uint32
	n                 uint8
	countOff, idOff   uint8
	relOff            uint8
}

// stamp copies the template to dst and stores its two operands whole, the
// template's bytes from the table with the operand ORed in (the count's
// first: its four-byte store may run into the index's site).
func (bt *blockTmpl) stamp(dst unsafe.Pointer, count, id uint32) {
	src := unsafe.Pointer(bt) // code is the first field
	*(*[blockTmplBytes]byte)(dst) = bt.code
	*(*uint32)(unsafe.Add(dst, bt.countOff)) = *(*uint32)(unsafe.Add(src, bt.countOff)) | count&bt.countMask
	*(*uint32)(unsafe.Add(dst, bt.idOff)) = *(*uint32)(unsafe.Add(src, bt.idOff)) | id&bt.idMask
}

// blockForm indexes tmplTable.heads and stubs for a block of count
// instructions: whether the count takes a four-byte immediate. An empty
// block's is the short form, charging 0 (see emitHead).
func blockForm(count uint32) int {
	if count > 127 {
		return 1
	}
	return 0
}

// tmplTable is the product of one run of the encoder over every shape.
type tmplTable struct {
	// index maps opcode<<shapeBits | shape&shapeMask[opcode] to a position
	// in templates; 0 means no template (an opcode outside the ISA).
	index     [numOps << shapeBits]uint16
	shapeMask [numOps]uint16
	templates [maxTemplates]template
	nTmpl     int

	// What the stamp loop reads per operand under pinMap: the shape kind of
	// widget integer register r, shifted to each operand field's place in
	// the shape, and patch[layout<<4|r], the byte an operand site of that
	// layout takes for register r. All are indexed by raw operand bytes,
	// hence the 256 entries.
	kindDst, kindA, kindB [256]uint8
	patch                 [256]uint8

	// heads and stubs are indexed by blockForm, the width of the count.
	heads, stubs [2]blockTmpl

	// entry is the prologue and the shared routines (routine sel at
	// routineAt[sel]), the code every program starts with; slowTail has
	// one fixup to the epilogue at slowTailFix.
	entry       []byte
	routineAt   [numCalls]int
	slowTail    []byte
	slowTailFix int
	epilogue    []byte
}

var (
	tmplOnce sync.Once
	tmplTab  *tmplTable
)

// templates returns the process-wide table, building it on first use
// (about a millisecond; processes that never compile never pay).
func templates() *tmplTable {
	tmplOnce.Do(func() { tmplTab = buildTemplates() })
	return tmplTab
}

// ---- stamping (per hash) ----

// stampProgram lays the whole program out in c.buf[:c.pos] under pinMap,
// and returns where the blocks and the slow stubs start.
func (c *Compiler) stampProgram(p *prog.Program) (blocksAt, stubsAt int, err error) {
	t := c.t
	c.reset(len(p.Blocks))
	c.ensure(len(t.entry))
	c.pos = copy(c.buf, t.entry)
	c.routine = t.routineAt
	blocksAt = c.pos
	if err := c.stampBlocks(p); err != nil {
		return 0, 0, err
	}
	stubsAt = c.pos
	c.stampStubs(p)
	epiPos := int32(c.pos)
	c.ensure(len(t.epilogue))
	c.pos += copy(c.buf[c.pos:], t.epilogue)
	return blocksAt, stubsAt, c.resolve(epiPos)
}

// stampBlocks stamps every block's head and body at c.pos.
func (c *Compiler) stampBlocks(p *prog.Program) error {
	t := c.t
	// A templated instruction records at most one fixup and writes its
	// slot unconditionally, so the loop needs one spare slot at all times.
	if need := len(c.fix) + len(p.Code) + 1; cap(c.fix) < need {
		c.fix = append(make([]fixup, 0, need), c.fix...)
	}
	var callBase [8]int32
	for sel := callLoad; sel < numCalls; sel++ {
		callBase[sel] = int32(c.routine[sel]) - 4
	}

	// The cursors live in locals, the slices behind raw pointers (the
	// stamp loop takes them so): pos is the code position, buf c.buf's
	// base, room the last position with a full region of room after it,
	// fixp the next fixup slot, and bi, i and end where the loop stands
	// in the program (see stampBlocks in stamp_amd64.s). reserve grows the
	// buffer under them.
	pos, fixp := c.pos, unsafe.Pointer(unsafe.SliceData(c.fix[len(c.fix):cap(c.fix)]))
	var buf unsafe.Pointer
	var room int
	reserve := func() {
		c.pos = pos
		c.ensure(regionMax)
		buf, room = unsafe.Pointer(unsafe.SliceData(c.buf)), len(c.buf)-regionMax-8
	}
	reserve()
	nb := len(p.Blocks)
	for bi, i, end := -1, 0, 0; ; {
		bi, i, end, pos, fixp = stampBlocks(t, unsafe.SliceData(p.Code), unsafe.SliceData(p.Blocks), nb,
			unsafe.SliceData(c.heads), bi, i, end, buf, pos, room, fixp, &callBase)
		if bi == nb {
			break
		}
		// The loop stopped short: the buffer is short, or (with room for
		// any lowering) the instruction at i has no template.
		if pos <= room {
			return errOpcode(p.Code[i/int(instrSize)].Op)
		}
		reserve()
	}
	c.pos = pos
	c.fix = c.fix[:(uintptr(fixp)-uintptr(unsafe.Pointer(unsafe.SliceData(c.fix))))/unsafe.Sizeof(fixup(0))]
	return nil
}

// stampBlocks is the stamp loop proper, in stamp_amd64.s: it stamps the
// blocks of a program (code, blocks[:nb]) at buf+pos — block bi's
// instructions from byte offset i of code to end, then each later block's
// head and instructions — recording each head's position in heads, until
// every block is done (newBi = nb), an instruction has no template or pos
// passes room; the cursors are returned as they then stand. callBase[sel]
// is the position a template's CALL (callSel) reaches, less the four
// bytes of its displacement.
//
//go:noescape
func stampBlocks(t *tmplTable, code *prog.Instr, blocks *prog.Block, nb int, heads *int32, bi, i, end int, buf unsafe.Pointer, pos, room int, fixp unsafe.Pointer, callBase *[8]int32) (newBi, newI, newEnd, newPos int, newFixp unsafe.Pointer)

// stampStubs stamps the slow tail and every block's slow stub at c.pos,
// and points each head's guard branch at its stub.
func (c *Compiler) stampStubs(p *prog.Program) {
	t := c.t
	nb := len(p.Blocks)
	c.ensure(len(t.slowTail) + nb*blockTmplBytes)
	slowTail := c.pos
	c.fix = append(c.fix, mkFixup(int32(c.pos+t.slowTailFix), 0, fixEpi))
	c.pos += copy(c.buf[c.pos:], t.slowTail)

	pos, buf := c.pos, c.buf
	for bi := range p.Blocks {
		count := p.Blocks[bi].Len
		c.slow[bi] = int32(pos)
		form := blockForm(count)
		st := &t.stubs[form]
		guard := int(c.heads[bi]) + int(t.heads[form].relOff)
		binary.LittleEndian.PutUint32(buf[guard:], uint32(pos-(guard+4)))

		dst := unsafe.Pointer(&buf[pos])
		st.stamp(dst, count, uint32(bi))
		*(*uint32)(unsafe.Add(dst, st.relOff)) = uint32(slowTail - (pos + int(st.relOff) + 4))
		pos += int(st.n)
	}
	c.pos = pos
}

// ---- building the table (once per process) ----

// tmplBuilder drives the encoder over sample operands and reads sites off
// the differences.
type tmplBuilder struct {
	g    *Compiler // the encoder; never installs or runs anything
	base []byte    // scratch: the encoding the samples are compared with
}

// Sample operands. fieldRegs[f] is the widget register standing in operand
// field f when that field is pinned — to hardware register 0 or 8 by its
// kind, and to 7 or 15 for the second sample, which differs in all three
// low bits — or in the frame, where frameAlt is the second sample: a
// frame register that no field uses. The registers are distinct per field,
// so only an Eq shape has Dst == A. Immediates are sampled as a value and
// its complement, so a difference spans the full width of the site.
var (
	fieldRegs  = [numKinds][3]uint8{kindPinLow: {12, 13, 14}, kindPinHigh: {12, 13, 14}, kindFrame8: {5, 6, 7}}
	immSamples = [4]int64{immI8: 0x11, immI32: 0x11111111, immI64: 0x1111111111111111}
)

const frameAlt = 8

// Stand-ins for the shared routines' positions and for the slow tail's.
var sampleRoutines = [numCalls]int{callLoad: 1 << 20, callStore: 2 << 20, callFToI: 3 << 20, callVMul: 4 << 20}

const sampleTail = 5 << 20

func buildTemplates() *tmplTable {
	t := &tmplTable{nTmpl: 1}
	g := &Compiler{routine: sampleRoutines}
	defer g.release() // the encoder emits into a code mapping, as Compile does
	tb := &tmplBuilder{g: g}
	// The operand tables under pinMap. A frame operand is patched as its
	// one-byte displacement: a frame-resident register whose slot a signed
	// byte does not reach would need a template family of its own.
	for r := uint8(0); r < isa.NumIntRegs; r++ {
		kind, pinned := uint8(kindFrame8), uint8(0)
		if p := pinMap[r]; p >= 0 {
			kind, pinned = uint8(p>>3), shapeEq // kindPinLow or kindPinHigh
			t.patch[layPinRM<<4|r] = uint8(p & 7)
			t.patch[layPinReg<<4|r] = uint8(p&7) << 3
		} else if off := intOff(r); off != int32(int8(off)) {
			panic(fmt.Sprintf("jit: frame-resident r%d is at displacement %d, beyond a signed byte", r, off))
		}
		t.kindDst[r], t.kindA[r], t.kindB[r] = kind|pinned, kind<<2, kind<<4
		t.patch[layDisp<<4|r] = uint8(intOff(r))
		t.patch[layFP<<4|r] = uint8(fpOff(r))
		t.patch[layVec<<4|r] = uint8(vecOff(r))
	}

	lower := func(g *Compiler, ins *prog.Instr) error { return g.emitInstr(ins, 2) }
	for op := isa.Opcode(0); op < numOps; op++ {
		if !op.Valid() {
			continue
		}
		var files [3]isa.RegFile
		files[0], files[1], files[2] = op.Operands()
		mask := uint32(0)
		for f, file := range files {
			if file == isa.RegInt {
				mask |= 3 << (2 * f)
			}
		}
		switch op {
		case isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpAddI:
			mask |= shapeEq // the lowerings with an in-place form
		}
		if op.HasImm() {
			mask |= 3 << shapeImmShift
		}
		t.shapeMask[op] = uint16(mask)
		for shape := uint32(0); shape < 1<<shapeBits; shape++ {
			if shape&^mask != 0 || !validShape(shape) {
				continue
			}
			tp, ok := tb.derive(lower, prog.Instr{Op: op}, shape)
			if !ok {
				panic(fmt.Sprintf("jit: %v in shape %#x does not fit a template", op, shape))
			}
			t.index[uint32(op)<<shapeBits|shape] = uint16(t.nTmpl)
			t.templates[t.nTmpl] = tp
			t.nTmpl++
		}
	}

	// The code every program starts and ends with, under pinMap.
	blob := func(emit func()) []byte {
		code, _ := tb.run(emit)
		return bytes.Clone(code)
	}
	g.regMap = pinMap
	t.entry = blob(func() { g.emitPrologue(); g.emitRoutines() })
	t.routineAt, g.routine = g.routine, sampleRoutines
	t.slowTail = blob(g.emitSlowTail)
	t.slowTailFix = int(g.fix[0].pos())
	t.epilogue = blob(g.emitEpilogue)

	// Block heads and slow stubs, one per count width (see tmplTable). The
	// sample pairs differ in every byte of their width.
	counts := [2][2]int32{{0x11, 0x6E}, {0x11111111, 0x6EEEEEEE}}
	ids := [2]int{0x2222222, 0xDDDDDDD}
	for form := range t.heads {
		t.heads[form] = tb.block(func(id int, count int32, _ int) { g.emitHead(id, count) }, ids, counts[form])
		t.stubs[form] = tb.block(g.emitStub, ids, counts[form])
	}
	return t
}

// validShape reports whether a shape can occur: every kind is one of
// numKinds, and Eq is only ever set for a pinned Dst, whose kind A then
// shares.
func validShape(shape uint32) bool {
	kd, ka, kb := shape&3, shape>>2&3, shape>>4&3
	if kd >= numKinds || ka >= numKinds || kb >= numKinds {
		return false
	}
	return shape&shapeEq == 0 || (kd == ka && kd <= kindPinHigh)
}

// run encodes from position 0 and returns the bytes and the fixups
// recorded, both valid until the next run.
func (tb *tmplBuilder) run(emit func()) ([]byte, []fixup) {
	g := tb.g
	g.pos, g.fix = 0, g.fix[:0]
	g.ensure(2 * regionMax)
	emit()
	return g.buf[:g.pos], g.fix
}

// runBase is run for the encoding later runs are compared with: the bytes
// move to the builder's scratch.
func (tb *tmplBuilder) runBase(emit func()) ([]byte, []fixup) {
	code, fix := tb.run(emit)
	tb.base = append(tb.base[:0], code...)
	return tb.base, fix
}

// site compares two encodings that differ in one operand and returns the
// byte range that moved; n is 0 when nothing did. ok is false when the
// operand changed the length, i.e. is not a patchable site.
func site(a, b []byte) (off, n int, ok bool) {
	if len(a) != len(b) {
		return 0, 0, false
	}
	last := -1
	for i := range a {
		if a[i] != b[i] {
			if last < 0 {
				off = i
			}
			last = i
		}
	}
	if last < 0 {
		return 0, 0, true
	}
	return off, last - off + 1, true
}

// widthMask returns the mask selecting the low n bytes.
func widthMask(n int) uint64 { return ^uint64(0) >> (64 - 8*uint(n)) }

// derive builds the template of one shape of one lowering. It fails when
// the lowering does not fit a template: too long, an operand in more than
// one place, or more than one fixup.
func (tb *tmplBuilder) derive(lower func(*Compiler, *prog.Instr) error, ins prog.Instr, shape uint32) (tp template, ok bool) {
	g := tb.g
	for r := range g.regMap {
		g.regMap[r] = -1
	}
	var files [3]isa.RegFile
	files[0], files[1], files[2] = ins.Op.Operands()
	kinds := [3]uint32{shape & 3, shape >> 2 & 3, shape >> 4 & 3}
	field := func(ins *prog.Instr, f int) *uint8 { return [3]*uint8{&ins.Dst, &ins.A, &ins.B}[f] }
	isInt := func(f int) bool { return files[f] == isa.RegInt }
	pinned := func(f int) bool { return isInt(f) && kinds[f] <= kindPinHigh }
	var alt [3]uint8
	for f := 0; f < 3; f++ {
		alt[f] = 7 // registers 0 and 7 exist in every file
		if isInt(f) {
			*field(&ins, f), alt[f] = fieldRegs[kinds[f]][f], frameAlt
			if pinned(f) {
				g.regMap[*field(&ins, f)] = int8(kinds[f] * 8)
			}
		}
	}
	eq := shape&shapeEq != 0
	if eq {
		ins.A = ins.Dst
	}
	ic := shape >> shapeImmShift
	ins.Imm = immSamples[ic]
	ins.Target = 1

	var err error
	encode := func(ins *prog.Instr) []byte {
		code, _ := tb.run(func() { err = lower(g, ins) })
		return code
	}
	base, _ := tb.runBase(func() { err = lower(g, &ins) })
	if err != nil || len(base) > tmplBytes || len(g.fix) > 1 {
		return tp, false
	}
	tp.n = uint8(copy(tp.code[:], base))
	tp.off, tp.callOff = [3]uint8{tmplBytes, tmplBytes + 1, tmplBytes + 2}, tmplBytes+4
	if len(g.fix) == 1 {
		tp.fix, tp.nfix = uint32(g.fix[0]), 1 // its low half: position (from 0) and kind
	}
	// blank zeroes a site in the template, for the patch to OR into.
	blank := func(off, n int) { clear(tp.code[off : off+n]) }

	for f := 0; f < 3; f++ {
		if eq && f == 1 {
			continue // A is Dst: one register, found as Dst's site
		}
		v := ins
		if pinned(f) {
			g.regMap[*field(&ins, f)] |= 7
		} else {
			*field(&v, f) = alt[f]
		}
		code := encode(&v)
		if pinned(f) {
			g.regMap[*field(&ins, f)] &^= 7
		}
		off, n, same := site(base, code)
		if err != nil || !same || n > 1 {
			return tp, false // n > 1: several sites
		}
		if n == 0 {
			continue // the lowering ignores this field
		}
		switch moved := base[off] ^ code[off]; {
		case !pinned(f):
			// A one-byte displacement, or the low byte of a four-byte one:
			// a frame slot's, a float register's or a vector register's
			// first lane's.
			switch tp.lay[f] = layDisp << 4; files[f] {
			case isa.RegFP:
				tp.lay[f] = layFP << 4
			case isa.RegVec:
				tp.lay[f] = layVec << 4
			}
			blank(off, 1)
		case moved == 0x07:
			tp.lay[f] = layPinRM << 4
		case moved == 0x38:
			tp.lay[f] = layPinReg << 4
		default:
			return tp, false
		}
		tp.off[f] = uint8(off)
	}

	if ic != immZero {
		v := ins
		v.Imm = ^ins.Imm
		off, n, same := site(base, encode(&v))
		if err != nil || !same || (n != 0 && n != 1 && n != 4 && n != 8) {
			return tp, false
		}
		if n != 0 {
			tp.immOff, tp.immMask = uint8(off), widthMask(n)
			blank(off, n)
		}
	}

	for sel := callLoad; sel < numCalls; sel++ {
		g.routine[sel] += 0x01010101
		code := encode(&ins)
		g.routine[sel] -= 0x01010101
		off, n, same := site(base, code)
		if err != nil || !same || n > 4 || (n != 0 && tp.callSel != 0) {
			return tp, false
		}
		if n != 0 {
			tp.callOff, tp.callSel = uint8(off), uint8(sel)
			blank(off, 4)
		}
	}
	return tp, true
}

// block builds a head or stub template from two samples of the block index
// and of the instruction count (both of the operand width wanted).
func (tb *tmplBuilder) block(emit func(id int, count int32, slowTail int), id [2]int, count [2]int32) blockTmpl {
	var bt blockTmpl
	base, fix := tb.runBase(func() { emit(id[0], count[0], sampleTail) })
	bt.n = uint8(copy(bt.code[:], base))
	if len(fix) == 1 {
		bt.relOff = uint8(fix[0].pos()) // a head: the guard's branch to the stub
	} else {
		moved, _ := tb.run(func() { emit(id[0], count[0], sampleTail+0x01010101) })
		off, _, _ := site(base, moved)
		bt.relOff = uint8(off)
		clear(bt.code[off : off+4])
	}
	// operand finds a one- or four-byte site; one the code lacks (a head's
	// index) is a zero patch into the slack.
	operand := func(moved []byte) (uint8, uint32) {
		off, n, ok := site(base, moved)
		if !ok || (n != 0 && n != 1 && n != 4) {
			panic("jit: block template operand is not a one- or four-byte site")
		}
		if n == 0 {
			return blockTmplBytes - 4, 0
		}
		clear(bt.code[off : off+n])
		return uint8(off), uint32(widthMask(n))
	}
	moved, _ := tb.run(func() { emit(id[0], count[1], sampleTail) })
	bt.countOff, bt.countMask = operand(moved)
	moved, _ = tb.run(func() { emit(id[1], count[0], sampleTail) })
	bt.idOff, bt.idMask = operand(moved)
	return bt
}
