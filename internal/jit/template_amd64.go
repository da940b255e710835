//go:build amd64 && linux

// Copy-and-patch compilation. Lowering a widget instruction is a fixed
// translation: the bytes depend only on the opcode, on where each operand
// lives (a low or a high hardware register, a frame slot with a short or a
// long displacement) and on how wide the immediate is. So the encoder in
// compile_amd64.go runs once per process over every such shape and leaves
// a table of byte templates, each with the sites where the operands go
// recorded; Compile then looks a template up, copies a fixed number of
// bytes and patches the operands in — no opcode switch, no residency test,
// no byte-at-a-time emission on the hash path.
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
// bit is part of the shape, or the low displacement byte of a frame slot —
// ORed into the buffer, so two pinned registers sharing a ModRM compose,
// and every load from the buffer is one byte inside a single earlier store
// (wider or straddling reads of just-written code stall on store
// forwarding, which cost more than the encoder did). A site a template
// lacks is a patch of zero into the slack past the template, which keeps
// the stamp loop free of per-site branches. That loop — shape, lookup,
// copy, patches, once per widget instruction — is stampRun in
// stamp_amd64.s; the block loop around it and everything stamped once per
// block or per program are below.
//
// What has no template is lowered by the encoder at hash time, in place
// between two stamps (the fallback): lowerings longer than tmplBytes or
// with an operand in several places (ftoi and the vector opcodes, about
// eight static instructions per leela widget), empty blocks, and the exit
// after a last block that falls off the program.
package jit

import (
	"bytes"
	"encoding/binary"
	"sync"
	"unsafe"

	"hashcore/internal/isa"
	"hashcore/internal/prog"
)

const (
	// tmplBytes is the fixed width copied per lowered instruction; the
	// longest templated lowering is 57 bytes.
	tmplBytes = 64
	// blockTmplBytes is the same for block heads and slow stubs (at most
	// 21 bytes).
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
	kindFrame32 = 3 // frame slot needing a 32-bit displacement

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
// (Compiler.patch).
const (
	layNone   = 0
	layDisp   = 1 // frame slot: low byte of intOff(r)
	layFP     = 2 // float register: fpOff(r)
	layPinRM  = 3 // pinned, in ModRM.rm or the low bits of an opcode: p&7
	layPinReg = 4 // pinned, in ModRM.reg: p&7 << 3
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
	lay     [3]uint8 // ... and its layout, pre-shifted to index Compiler.patch
	immOff  uint8
	callOff uint8 // site of a CALL's rel32
	callSel uint8 // which routine it calls: 1 load, 2 store
	nfix    uint8 // 1 when the lowering records a fixup
}

// blockTmpl is a block head or a slow stub: the block's instruction count
// and its index (times eight in a head, where it addresses the execution
// counter) are the operands, rel the branch between the two.
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

// blockVariant indexes tmplTable.heads for a block of count (non-zero)
// instructions at index bi; its low bit alone indexes stubs.
func blockVariant(count uint32, bi int) int {
	v := 0
	if count > 127 {
		v = 1
	}
	if bi > 15 {
		v |= 2
	}
	return v
}

// tmplTable is the product of one run of the encoder over every shape.
type tmplTable struct {
	// index maps opcode<<shapeBits | shape&shapeMask[opcode] to a position
	// in templates; 0 means the encoder lowers it.
	index     [numOps << shapeBits]uint16
	shapeMask [numOps]uint16
	templates [maxTemplates]template
	nTmpl     int

	dispKind [isa.NumIntRegs]uint8 // kindFrame8 or kindFrame32: the slot's reach

	// heads is indexed by blockVariant: count > 127 | (block index > 15)<<1,
	// the width of the SUB's immediate and of the counter's displacement;
	// stubs by count > 127 alone.
	heads [4]blockTmpl
	stubs [2]blockTmpl

	// proLoad and epiStore move one pinned register from or to its frame
	// slot, indexed by the register's pinned kind and its slot's dispKind.
	// entry is what follows the loads: the rest of the prologue and the two
	// memory routines (at loadAt and storeAt); slowTail has one fixup to
	// the epilogue at slowTailFix.
	proLoad, epiStore [2][2]template
	entry             []byte
	loadAt, storeAt   int
	slowTail          []byte
	slowTailFix       int
	epiTail           []byte
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

// stampProgram lays the whole program out in c.buf[:c.pos] under the
// register assignment in c.regMap, and returns where the blocks and the
// slow stubs start.
func (c *Compiler) stampProgram(p *prog.Program) (blocksAt, stubsAt int, err error) {
	c.reset(len(p.Blocks))
	c.bindRegs()
	c.stampPrologue()
	blocksAt = c.pos
	if err := c.stampBlocks(p); err != nil {
		return 0, 0, err
	}
	stubsAt = c.pos
	c.stampStubs(p)
	epiPos := int32(c.pos)
	c.stampEpilogue()
	return blocksAt, stubsAt, c.resolve(epiPos)
}

// bindRegs derives from the register assignment what the stamp loop reads
// per operand: its shape kind in each field's position, and for a pinned
// register its low bits as the two pinned layouts place them.
func (c *Compiler) bindRegs() {
	for r := 0; r < isa.NumIntRegs; r++ {
		kind, pinned := c.t.dispKind[r], uint8(0)
		if p := c.regMap[r]; p >= 0 {
			kind, pinned = uint8(p>>3), shapeEq // kindPinLow or kindPinHigh
			c.patch[layPinRM<<4|r] = uint8(p & 7)
			c.patch[layPinReg<<4|r] = uint8(p&7) << 3
		}
		c.kindDst[r], c.kindA[r], c.kindB[r] = kind|pinned, kind<<2, kind<<4
	}
}

// stampReg stamps one of the prologue/epilogue register moves for widget
// register r: Dst is its hardware register, A its frame slot.
func (c *Compiler) stampReg(tp *[2][2]template, r int) {
	t := &tp[c.kindDst[r]&1][c.t.dispKind[r]-kindFrame8]
	dst := unsafe.Pointer(&c.buf[c.pos])
	*(*[tmplBytes]byte)(dst) = t.code
	*(*uint8)(unsafe.Add(dst, t.off[0])) |= c.patch[t.lay[0]|uint8(r)]
	*(*uint8)(unsafe.Add(dst, t.off[1])) |= c.patch[t.lay[1]|uint8(r)]
	c.pos += int(t.n)
}

func (c *Compiler) stampPrologue() {
	t := c.t
	c.ensure(isa.NumIntRegs*tmplBytes + len(t.entry))
	for r := 0; r < isa.NumIntRegs; r++ {
		if c.regMap[r] >= 0 {
			c.stampReg(&t.proLoad, r)
		}
	}
	c.loadRoutine, c.storeRoutine = c.pos+t.loadAt, c.pos+t.storeAt
	c.pos += copy(c.buf[c.pos:], t.entry)
}

func (c *Compiler) stampEpilogue() {
	t := c.t
	c.ensure(isa.NumIntRegs*tmplBytes + len(t.epiTail))
	for r := 0; r < isa.NumIntRegs; r++ {
		if c.regMap[r] >= 0 {
			c.stampReg(&t.epiStore, r)
		}
	}
	c.pos += copy(c.buf[c.pos:], t.epiTail)
}

// stampBlocks stamps every block's head and body at c.pos.
func (c *Compiler) stampBlocks(p *prog.Program) error {
	t := c.t
	nb := len(p.Blocks)
	// A templated instruction records at most one fixup and writes its
	// slot unconditionally, so the loop needs one spare slot at all times;
	// encoder-lowered heads add at most one per block.
	if need := len(c.fix) + len(p.Code) + nb + 2; cap(c.fix) < need {
		c.fix = append(make([]fixup, 0, need), c.fix...)
	}
	callBase := [4]int32{1: int32(c.loadRoutine) - 4, 2: int32(c.storeRoutine) - 4}

	// The cursors live in locals, the slices behind raw pointers (stampRun
	// takes them so; every bound is reserved up front): sync writes them
	// back around a call into the encoder, load rereads them and the
	// buffer, which that call may have grown.
	var (
		pos  int            // code position
		buf  unsafe.Pointer // c.buf's base
		room int            // the last position with a full region of room
		fixp unsafe.Pointer // next fixup slot
	)
	load := func() {
		pos, buf, room = c.pos, unsafe.Pointer(unsafe.SliceData(c.buf)), len(c.buf)-regionMax-8
		fixp = unsafe.Pointer(unsafe.SliceData(c.fix[len(c.fix):cap(c.fix)]))
	}
	sync := func() {
		c.pos = pos
		c.fix = c.fix[:(uintptr(fixp)-uintptr(unsafe.Pointer(unsafe.SliceData(c.fix))))/unsafe.Sizeof(fixup(0))]
	}
	load()
	for bi := range p.Blocks {
		b := &p.Blocks[bi]
		instrs := p.Instrs(bi)
		if pos > room {
			sync()
			c.ensure(regionMax)
			load()
		}
		c.heads[bi] = int32(pos)
		if b.Len == 0 {
			sync()
			c.emitHead(bi, 0)
			load()
		} else {
			ht := &t.heads[blockVariant(b.Len, bi)]
			ht.stamp(unsafe.Add(buf, pos), b.Len, uint32(bi*8))
			pos += int(ht.n)
		}

		for len(instrs) > 0 {
			var next *prog.Instr
			next, pos, fixp = stampRun(c, t, &instrs[0], len(instrs), buf, pos, room, fixp, &callBase)
			instrs = instrs[(uintptr(unsafe.Pointer(next))-uintptr(unsafe.Pointer(&instrs[0])))/instrSize:]
			if len(instrs) == 0 {
				break
			}
			// stampRun stopped at an instruction: the buffer is short, or
			// (with room for any lowering) it has no template.
			sync()
			if pos > room {
				c.ensure(regionMax)
			} else {
				if err := c.emitInstr(&instrs[0], nb); err != nil {
					return err
				}
				c.encoded++
				instrs = instrs[1:]
			}
			load()
		}
	}
	sync()
	if nb > 0 && !endsUnconditional(p, nb-1) {
		c.emitFallOff(nb)
	}
	return nil
}

// stampRun is the stamp loop proper, in stamp_amd64.s: it stamps ins[0:n]
// at buf+pos until an instruction has no template or pos passes room, and
// returns the first instruction it did not stamp with the cursors as they
// then stand. callBase[sel] is the position a template's CALL (callSel)
// reaches, less the four bytes of its displacement.
//
//go:noescape
func stampRun(c *Compiler, t *tmplTable, ins *prog.Instr, n int, buf unsafe.Pointer, pos, room int, fixp unsafe.Pointer, callBase *[4]int32) (next *prog.Instr, newPos int, newFixp unsafe.Pointer)

// stampStubs stamps the slow tail and every block's slow stub at c.pos,
// and points each stamped head's guard branch at its stub (an
// encoder-lowered head recorded a fixup instead).
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
		if count == 0 {
			c.pos = pos
			c.emitStub(bi, 0, slowTail)
			pos, buf = c.pos, c.buf
			continue
		}
		v := blockVariant(count, bi)
		st := &t.stubs[v&1]
		guard := int(c.heads[bi]) + int(t.heads[v].relOff)
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
// low bits — or in the frame, where fieldAlt is the second sample: a
// register of the same kind that no field uses. The registers are distinct
// per field, so only an Eq shape has Dst == A. Immediates are sampled as a
// value and its complement, so a difference spans the full width of the
// site.
var (
	fieldRegs  = [4][3]uint8{kindPinLow: {12, 13, 14}, kindPinHigh: {12, 13, 14}, kindFrame8: {5, 6, 7}, kindFrame32: {0, 1, 2}}
	fieldAlt   = [4]uint8{kindFrame8: 8, kindFrame32: 3}
	immSamples = [4]int64{immI8: 0x11, immI32: 0x11111111, immI64: 0x1111111111111111}
)

const (
	sampleLoadAt  = 0x100000 // stand-ins for the memory routines' positions
	sampleStoreAt = 0x200000
	sampleTail    = 0x300000 // and for the slow tail's
)

func buildTemplates() *tmplTable {
	t := &tmplTable{nTmpl: 1}
	g := &Compiler{loadRoutine: sampleLoadAt, storeRoutine: sampleStoreAt}
	tb := &tmplBuilder{g: g}
	for r := range t.dispKind {
		off := intOff(uint8(r))
		t.dispKind[r] = kindFrame32
		if off == int32(int8(off)) {
			t.dispKind[r] = kindFrame8
		}
		// A frame operand is patched in its displacement's low byte only.
		if off>>8 != -1 {
			panic("jit: integer register slots are not within 256 bytes below the frame pointer")
		}
	}

	lower := func(g *Compiler, ins *prog.Instr) error { return g.emitInstr(ins, 2) }
	for op := isa.Opcode(0); op < numOps; op++ {
		use := intUseMask[op]
		mask := uint32(0)
		for f := 0; f < 3; f++ {
			if use>>f&1 != 0 {
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
			if tp, ok := tb.derive(lower, prog.Instr{Op: op}, use, shape); ok {
				if t.nTmpl == maxTemplates {
					panic("jit: template table full")
				}
				t.index[uint32(op)<<shapeBits|shape] = uint16(t.nTmpl)
				t.templates[t.nTmpl] = tp
				t.nTmpl++
			}
		}
	}

	// The prologue's loads and the epilogue's stores: Dst names the pinned
	// register, A the frame slot (the stamper passes one register as both).
	move := func(op byte) func(g *Compiler, ins *prog.Instr) error {
		return func(g *Compiler, ins *prog.Instr) error {
			g.opRM(op, int(g.regMap[ins.Dst]), r15, intOff(ins.A))
			return nil
		}
	}
	for pin := range t.proLoad {
		for k := range t.proLoad[pin] {
			shape := uint32(pin | (kindFrame8+k)<<2)
			var ok1, ok2 bool
			t.proLoad[pin][k], ok1 = tb.derive(move(0x8B), prog.Instr{}, 3, shape)
			t.epiStore[pin][k], ok2 = tb.derive(move(0x89), prog.Instr{}, 3, shape)
			if !ok1 || !ok2 {
				panic("jit: no template for the prologue/epilogue register moves")
			}
		}
	}

	blob := func(emit func()) []byte {
		code, _ := tb.run(emit)
		return bytes.Clone(code)
	}
	t.entry = blob(func() { g.emitPrologueTail(); g.emitMemRoutines() })
	t.loadAt, t.storeAt = g.loadRoutine, g.storeRoutine
	g.loadRoutine, g.storeRoutine = sampleLoadAt, sampleStoreAt
	t.slowTail = blob(g.emitSlowTail)
	t.slowTailFix = int(g.fix[0].pos())
	t.epiTail = blob(g.emitEpilogueTail)

	// Block heads and slow stubs, one per operand width (see tmplTable).
	// The sample pairs differ in every byte of their width; a head's index
	// operand is the index times eight.
	counts := [2][2]int32{{0x11, 0x6E}, {0x11111111, 0x6EEEEEEE}}
	ids := [2][2]int{{0x2, 0xD}, {0x2222222, 0xDDDDDDD}}
	for v := range t.heads {
		t.heads[v] = tb.block(func(id int, count int32, _ int) { g.emitHead(id, count) }, ids[v>>1], counts[v&1])
	}
	for v := range t.stubs {
		t.stubs[v] = tb.block(g.emitStub, ids[1], counts[v])
	}
	return t
}

// validShape reports whether a shape can occur: Eq is only ever set for a
// pinned Dst, whose kind A then shares.
func validShape(shape uint32) bool {
	kd, ka := shape&3, shape>>2&3
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

// derive builds the template of one shape of one lowering: use says which
// operand fields of ins name integer registers (the others are float or
// vector registers, or unused). It fails — leaving the shape to the
// encoder — when the lowering does not fit a template: too long, an
// operand in more than one place, or more than one fixup.
func (tb *tmplBuilder) derive(lower func(*Compiler, *prog.Instr) error, ins prog.Instr, use uint8, shape uint32) (tp template, ok bool) {
	g := tb.g
	for r := range g.regMap {
		g.regMap[r] = -1
	}
	kinds := [3]uint32{shape & 3, shape >> 2 & 3, shape >> 4 & 3}
	field := func(ins *prog.Instr, f int) *uint8 { return [3]*uint8{&ins.Dst, &ins.A, &ins.B}[f] }
	isInt := func(f int) bool { return use>>f&1 != 0 }
	pinned := func(f int) bool { return isInt(f) && kinds[f] <= kindPinHigh }
	var alt [3]uint8
	for f := 0; f < 3; f++ {
		alt[f] = 7 // registers 0 and 7 exist in every file
		if isInt(f) {
			*field(&ins, f), alt[f] = fieldRegs[kinds[f]][f], fieldAlt[kinds[f]]
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
			return tp, false // n > 1: several sites (the vector opcodes' lanes)
		}
		if n == 0 {
			continue // the lowering ignores this field
		}
		switch moved := base[off] ^ code[off]; {
		case !pinned(f):
			// A frame slot's displacement (its low byte, whatever its width)
			// or a float register's.
			tp.lay[f] = layFP << 4
			if isInt(f) {
				tp.lay[f] = layDisp << 4
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

	for sel, routine := range [...]*int{&g.loadRoutine, &g.storeRoutine} {
		*routine += 0x01010101
		code := encode(&ins)
		*routine -= 0x01010101
		off, n, same := site(base, code)
		if err != nil || !same || n > 4 || (n != 0 && tp.callSel != 0) {
			return tp, false
		}
		if n != 0 {
			tp.callOff, tp.callSel = uint8(off), uint8(sel+1)
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
	operand := func(moved []byte) (uint8, uint32) {
		off, n, ok := site(base, moved)
		if !ok || (n != 1 && n != 4) {
			panic("jit: block template operand is not a one- or four-byte site")
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
