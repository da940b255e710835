package vm

import (
	"hashcore/internal/isa"
	"hashcore/internal/prog"
)

// What the tests in package vm_test — where the dense oracle lives — may
// see of the fused stream.

// FusedBlock describes one block as the fast loop executes it.
type FusedBlock struct {
	Ops   []isa.Opcode // the slots it dispatches, in order
	Next  uint32       // its successor when no slot redirects control
	Count uint32       // the architectural instructions it retires
	Execs uint64       // its fast-path executions in the last interpreter run
}

// FusedBlocks builds the fused stream of the loaded program if need be and
// describes it block by block.
func (m *Machine) FusedBlocks() []FusedBlock {
	m.ensureFused()
	out := make([]FusedBlock, len(m.fblocks))
	for bi := range m.fblocks {
		meta := &m.fblocks[bi]
		fb := FusedBlock{Next: meta.next, Count: meta.count, Execs: meta.execs}
		for _, fi := range m.fcode[meta.fstart:meta.fend] {
			fb.Ops = append(fb.Ops, fi.Op)
		}
		out[bi] = fb
	}
	return out
}

// FusedBuilt reports whether the fused stream of the current load exists.
func (m *Machine) FusedBuilt() bool { return m.fusedGen == m.loadGen }

// ExpandFused rebuilds, from the fused stream and the block metadata
// alone, the architectural instructions of block bi: fused slots decoded
// into their pairs, and a jmp appended where hadJmp says the block ended
// in one — the stream does not record whether a successor was a jump or a
// fall-through, because executing it does not depend on that. The derived
// fields (Class, PC) are left zero: the stream does not keep them for a
// pair's halves.
func (m *Machine) ExpandFused(bi int, hadJmp bool) []prog.Instr {
	m.ensureFused()
	meta := &m.fblocks[bi]
	var out []prog.Instr
	for i := meta.fstart; i < meta.fend; i++ {
		fi := &m.fcode[i]
		if fi.Op.IsFused() {
			first, second := decodeFusedParts(fi)
			out = append(out, first, second)
			continue
		}
		out = append(out, prog.Instr{Op: fi.Op, Dst: fi.Dst, A: fi.A, B: fi.B, Imm: fi.Imm, Target: fi.Target})
	}
	if hadJmp {
		out = append(out, prog.Instr{Op: isa.OpJmp, Target: meta.next})
	}
	return out
}
