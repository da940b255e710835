package prog

import (
	"encoding/binary"
	"errors"
	"fmt"

	"hashcore/internal/isa"
)

// Binary widget format:
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

// ErrBadFormat is returned by Decode for malformed widget binaries.
var ErrBadFormat = errors.New("prog: malformed widget binary")

// Encode serializes p into the binary widget format. The program should be
// validated first; Encode does not check semantics. The derived fields
// (Instr.PC, Instr.Class, the block table's tallies) are not serialized.
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

// Decode parses a binary widget produced by Encode, writing it through a
// Builder — which validates it and derives what the format leaves out. A
// program Decode accepts re-encodes to the bytes it came from.
func Decode(data []byte) (*Program, error) {
	if len(data) < 20 || [4]byte(data[:4]) != magic {
		return nil, fmt.Errorf("%w: bad magic or truncated header", ErrBadFormat)
	}
	memLog := binary.LittleEndian.Uint32(data[4:])
	if memLog > 28 { // 256 MiB
		return nil, fmt.Errorf("%w: memory size 2^%d out of range", ErrBadFormat, memLog)
	}
	nBlocks := binary.LittleEndian.Uint32(data[16:])
	if nBlocks > MaxBlocks {
		return nil, fmt.Errorf("%w: %d blocks", ErrBadFormat, nBlocks)
	}
	// The counts come from outside: reserve no more than the bytes that
	// follow could hold (4 a block header, instrSize an instruction).
	body := len(data) - 20
	var b Builder
	b.program.Blocks = make([]Block, 0, min(int(nBlocks), body/4))
	b.program.Code = make([]Instr, 0, body/instrSize)
	b.Reset(1<<memLog, binary.LittleEndian.Uint64(data[8:]))
	off := 20
	for bi := uint32(0); bi < nBlocks; bi++ {
		if off+4 > len(data) {
			return nil, fmt.Errorf("%w: truncated block header", ErrBadFormat)
		}
		n := binary.LittleEndian.Uint32(data[off:])
		off += 4
		if n > MaxBlockInstrs || off+int(n)*instrSize > len(data) {
			return nil, fmt.Errorf("%w: truncated block body", ErrBadFormat)
		}
		b.NewBlock()
		for end := off + int(n)*instrSize; off < end; off += instrSize {
			b.Emit(Instr{
				Op:     isa.Opcode(data[off]),
				Dst:    data[off+1],
				A:      data[off+2],
				B:      data[off+3],
				Target: binary.LittleEndian.Uint32(data[off+4:]),
				Imm:    int64(binary.LittleEndian.Uint64(data[off+8:])),
			})
		}
	}
	if off != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadFormat, len(data)-off)
	}
	return b.Build()
}

func log2(n int) int {
	l := 0
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}
