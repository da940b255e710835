package vm

import (
	"testing"

	"hashcore/internal/isa"
	"hashcore/internal/prog"
)

// What the tests in package vm_test — where the dense oracle lives — may
// see of the written-word table and the fused stream.

// ShrinkTable gives m an empty written-word table of slots slots and, until
// the test ends, has every table keep only slack words of headroom, so
// that one run grows it many times — at native code's headroom bounces
// among other places.
func ShrinkTable(tb testing.TB, m *Machine, slots, slack int) {
	old := tableSlack
	tb.Cleanup(func() { tableSlack = old })
	tableSlack = slack
	m.table = wordTable{epoch: m.table.epoch}
	m.table.resize(slots)
}

// SetTableEpoch moves the table's epoch forward to e, which must not be
// below the current one (TableEpoch): the next run's reset starts e+1.
func (m *Machine) SetTableEpoch(e uint32) { m.table.epoch = uint64(e) << 32 }

// TableEpoch is the epoch of the last run.
func (m *Machine) TableEpoch() uint32 { return uint32(m.table.epoch >> 32) }

// MaxKeyEpoch is the highest epoch any slot's key carries, live or not.
func (m *Machine) MaxKeyEpoch() uint32 {
	var e uint32
	for _, s := range m.table.slots {
		e = max(e, uint32(s.key>>32))
	}
	return e
}

// ScratchBytes is what m retains for its scratch memory: the written
// filter's and the table's storage.
func (m *Machine) ScratchBytes() int { return len(m.written)*8 + cap(m.table.slots)*16 }

// FusedBlock describes one block as the fast loop executes it.
type FusedBlock struct {
	Ops   []isa.Opcode // the slots it dispatches, in order
	Next  uint32       // its successor when no slot redirects control
	Count uint32       // the architectural instructions it retires
}

// FusedBlocks builds the fused stream of the loaded program if need be and
// describes it block by block.
func (m *Machine) FusedBlocks() []FusedBlock {
	m.ensureFused()
	out := make([]FusedBlock, len(m.fblocks))
	for bi := range m.fblocks {
		meta := &m.fblocks[bi]
		fb := FusedBlock{Next: meta.next, Count: meta.count}
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
// field Class is left zero: the stream does not keep it for a pair's
// halves.
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
