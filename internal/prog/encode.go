package prog

import "encoding/binary"

// Binary widget format (HCW1), the canonical byte form of a program. It is
// write-only: selection.Pool.StorageBytes counts it and tests compare and
// pin programs by it, but nothing parses it back. No program enters from
// outside the process: the generator and refprog.Builder make them all.
//
//	magic   [4]byte  "HCW1"
//	memSize uint32   log2 of memory size
//	memSeed uint64
//	nBlocks uint32
//	blocks: nInstrs uint32, then nInstrs * 16-byte instructions
//
// Each instruction is op(1) dst(1) a(1) b(1) target(4) imm(8), all
// little-endian. The format is versioned by the magic string.

var magic = [4]byte{'H', 'C', 'W', '1'}

// instrSize is the encoded size of one instruction in bytes.
const instrSize = 16

// Encode serializes p into the binary widget format. The program should be
// validated first; Encode does not check semantics. The derived fields
// (Instr.Class, the block starts) are not serialized.
func (p *Program) Encode() []byte {
	out := make([]byte, 0, 20+4*len(p.Blocks)+instrSize*len(p.Code))
	out = append(out, magic[:]...)
	out = binary.LittleEndian.AppendUint32(out, uint32(log2(p.MemSize)))
	out = binary.LittleEndian.AppendUint64(out, p.MemSeed)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(p.Blocks)))
	for bi := range p.Blocks {
		instrs := p.Instrs(bi)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(instrs)))
		for _, ins := range instrs {
			out = append(out, byte(ins.Op), ins.Dst, ins.A, ins.B)
			out = binary.LittleEndian.AppendUint32(out, ins.Target)
			out = binary.LittleEndian.AppendUint64(out, uint64(ins.Imm))
		}
	}
	return out
}

func log2(n int) int {
	l := 0
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}
