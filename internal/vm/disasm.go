package vm

import (
	"fmt"
	"strings"

	"hashcore/internal/asm"
	"hashcore/internal/isa"
	"hashcore/internal/prog"
)

// DisassembleFused renders the fused stream the block-batched interpreter
// executes for the currently loaded program, with each fused slot expanded
// back into its architectural pair and each block headed by its successor
// — where control goes when no slot redirects it, which is how a trailing
// jmp appears here: folded into the header, in no slot. This is the
// codegen-debugging companion to asm.Disassemble: that one shows the
// architectural program, this one shows what actually dispatches. Branch
// targets are block indices, as in the program itself.
func (m *Machine) DisassembleFused() string {
	m.ensureFused()
	var b strings.Builder
	fmt.Fprintf(&b, "; fused: %d blocks, %d slots for %d architectural instructions\n",
		len(m.fblocks), len(m.fcode), len(m.prog.Code))
	for bi := range m.fblocks {
		meta := &m.fblocks[bi]
		fmt.Fprintf(&b, ".block %d ; next @%d", bi, meta.next)
		if code := m.prog.Instrs(bi); len(code) > 0 && code[len(code)-1].Op == isa.OpJmp {
			b.WriteString(" (jmp folded)")
		}
		b.WriteString("\n")
		for i := meta.fstart; i < meta.fend; i++ {
			fi := &m.fcode[i]
			b.WriteString("\t")
			if fi.Op.IsFused() {
				first, second := decodeFusedParts(fi)
				b.WriteString(asm.FormatFusedPair(fi.Op, first, second))
			} else {
				b.WriteString(asm.FormatInstr(*fi))
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// DumpNative compiles the loaded program for the native backend and
// renders what the compiler produced: the two shared scratch-memory
// routines every load and store site calls, as hex (the load routine ends
// in the pristine path — the machine-code rng.SplitMix64At — which is where
// most loads of most widgets go), then the code size of each block's head
// and body. It is the native-side companion of DisassembleFused for
// hashcore dump-widget; on platforms without a native backend it returns
// jit.ErrUnsupported.
func (m *Machine) DumpNative() (string, error) {
	if _, err := m.CompileNative(); err != nil {
		return "", err
	}
	code := m.native.code
	var b strings.Builder
	fmt.Fprintf(&b, "; native: %d bytes for %d blocks\n", code.Size(), len(m.prog.Blocks))
	for _, r := range []struct {
		name string
		text []byte
	}{{"load", code.LoadRoutine()}, {"store", code.StoreRoutine()}} {
		fmt.Fprintf(&b, ".routine %s ; %d bytes, shared by every %s site\n", r.name, len(r.text), r.name)
		for off := 0; off < len(r.text); off += 16 {
			fmt.Fprintf(&b, "\t% x\n", r.text[off:min(off+16, len(r.text))])
		}
	}
	for bi := range m.prog.Blocks {
		fmt.Fprintf(&b, ".block %d ; %d instructions, %d bytes\n", bi, m.prog.Blocks[bi].Len, code.BlockSize(bi))
	}
	return b.String(), nil
}

// decodeFusedParts unpacks a fused execution slot into the architectural
// pair it retires — the exact inverse of tryFuse's two encodings
// (documented in fuse.go).
func decodeFusedParts(fi *prog.Instr) (first, second prog.Instr) {
	fop, sop, ok := fi.Op.FuseParts()
	if !ok {
		panic("vm: decodeFusedParts on a non-fused opcode")
	}
	first = prog.Instr{Op: fop, Dst: fi.Dst, A: fi.A, B: fi.B}
	if sop.IsCondBranch() {
		second = prog.Instr{Op: sop, A: uint8(fi.PC), B: uint8(fi.PC >> 8), Target: fi.Target}
	} else {
		second = prog.Instr{Op: sop, Dst: uint8(fi.PC), A: uint8(fi.PC >> 8), B: uint8(fi.PC >> 16)}
	}
	return first, second
}
