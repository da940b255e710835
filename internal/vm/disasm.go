package vm

import (
	"fmt"
	"strings"

	"hashcore/internal/asm"
	"hashcore/internal/isa"
	"hashcore/internal/prog"
)

// DisassembleFused renders the fused superinstruction stream the
// block-batched interpreter executes for the currently loaded program —
// the same stream the native backend's input is decoded from — with each
// fused slot expanded back into its architectural pair. This is the
// codegen-debugging companion to asm.Disassemble: that one shows the
// architectural program, this one shows what actually dispatches. Branch
// targets are block indices (the fused stream transfers between blocks,
// not flat pcs).
func (m *Machine) DisassembleFused() string {
	m.ensureFused()
	var b strings.Builder
	fmt.Fprintf(&b, "; fused: %d blocks, %d slots for %d architectural instructions\n",
		len(m.blocks), len(m.fcode), len(m.code))
	for bi := range m.blocks {
		meta := &m.blocks[bi]
		fmt.Fprintf(&b, ".block %d\n", bi)
		for i := meta.fstart; i < meta.fend; i++ {
			fi := &m.fcode[i]
			b.WriteString("\t")
			if fi.op.IsFused() {
				first, second := decodeFusedParts(fi)
				b.WriteString(asm.FormatFusedPair(fi.op, first, second))
			} else {
				b.WriteString(asm.FormatInstr(prog.Instr{
					Op: fi.op, Dst: fi.dst, A: fi.a, B: fi.b,
					Imm: fi.imm, Target: fi.target,
				}))
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
// hcbench -dump-widget; on platforms without a native backend it returns
// jit.ErrUnsupported.
func (m *Machine) DumpNative() (string, error) {
	if _, err := m.CompileNative(); err != nil {
		return "", err
	}
	code := m.native.code
	var b strings.Builder
	fmt.Fprintf(&b, "; native: %d bytes for %d blocks\n", code.Size(), len(m.blocks))
	for _, r := range []struct {
		name string
		text []byte
	}{{"load", code.LoadRoutine()}, {"store", code.StoreRoutine()}} {
		fmt.Fprintf(&b, ".routine %s ; %d bytes, shared by every %s site\n", r.name, len(r.text), r.name)
		for off := 0; off < len(r.text); off += 16 {
			fmt.Fprintf(&b, "\t% x\n", r.text[off:min(off+16, len(r.text))])
		}
	}
	for bi := range m.blocks {
		fmt.Fprintf(&b, ".block %d ; %d instructions, %d bytes\n", bi, m.blocks[bi].count, code.BlockSize(bi))
	}
	return b.String(), nil
}

// decodeFusedParts unpacks a fused execution slot into the architectural
// pair it retires — the exact inverse of tryFuse's encodings (documented
// in fuse.go). The round-trip property (re-fusing the decoded halves
// reproduces the slot bit-for-bit) is tested.
func decodeFusedParts(fi *flatInstr) (first, second prog.Instr) {
	fop, sop, ok := fi.op.FuseParts()
	if !ok {
		panic("vm: decodeFusedParts on a non-fused opcode")
	}
	first.Op, second.Op = fop, sop
	switch {
	case fi.op.IsFusedJmp():
		// First half keeps all its fields; the jump contributes its target.
		first.Dst, first.A, first.B, first.Imm = fi.dst, fi.a, fi.b, fi.imm
		second.Target = fi.target
	case sop.IsCondBranch():
		// cmp+branch carries the compare in dst,a,b; addi+branch carries
		// the addi in dst,a,imm. Branch registers are packed in aux.
		first.Dst, first.A = fi.dst, fi.a
		if fop == isa.OpAddI {
			first.Imm = fi.imm
		} else {
			first.B = fi.b
		}
		second.A, second.B = uint8(fi.aux), uint8(fi.aux>>8)
		second.Target = fi.target
	case fop == isa.OpMovI:
		first.Dst, first.Imm = uint8(fi.aux), fi.imm
		second.Dst, second.A, second.B = fi.dst, fi.a, fi.b
	case sop == isa.OpLoad:
		first.Dst, first.A, first.Imm = fi.dst, fi.a, fi.imm
		second.Dst, second.A = uint8(fi.aux), uint8(fi.aux>>8)
		second.Imm = int64(fi.target)
	case sop == isa.OpStore:
		first.Dst, first.A, first.Imm = fi.dst, fi.a, fi.imm
		second.A, second.B = uint8(fi.aux), uint8(fi.aux>>8)
		second.Imm = int64(fi.target)
	default:
		// ALU pair: first in dst,a,b, second packed into aux.
		first.Dst, first.A, first.B = fi.dst, fi.a, fi.b
		second.Dst, second.A, second.B = uint8(fi.aux), uint8(fi.aux>>8), uint8(fi.aux>>16)
	}
	return first, second
}
