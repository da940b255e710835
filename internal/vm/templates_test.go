package vm_test

// TestMemoryTemplates' treatment for the opcodes that do not touch memory:
// every native template family — opcode × where each integer operand
// lives — run across every boundary that can fall in or around it, with
// the dense reference deciding.

import (
	"fmt"
	"testing"

	"hashcore/internal/isa"
	"hashcore/internal/prog"
	"hashcore/internal/vm"
	"hashcore/internal/workload/refprog"
)

// Residence kinds of an integer operand as the native compiler's templates
// distinguish them, and the registers opcodeProgram's preamble puts in
// each: it references r5..r8 most (low hardware registers), r9..r12 next
// (high ones: the same encodings under a REX bit) and nothing else nearly
// as often, so r13..r15 stay in frame slots a one-byte displacement
// reaches and r0..r4 in slots that need four bytes.
const (
	resLow = iota
	resHigh
	resFrame8
	resFrame32
	numRes
)

var (
	resNames = [numRes]string{"low", "high", "frame8", "frame32"}
	// resRegs[k][f] is the register of kind k used for operand field f
	// (Dst, A, B), so the three operands of one instruction never alias
	// unless the case asks for Dst == A.
	resRegs = [numRes][3]uint8{{5, 6, 7}, {9, 10, 11}, {13, 14, 15}, {0, 1, 2}}
)

const (
	tmplFold  = 4 // frame32, never an operand: the result is folded in here
	tmplOther = 3 // frame32, never an operand: a second live value
)

type opcodeCase struct {
	op         isa.Opcode
	dst, a, b  int  // residence kinds
	dstIsA     bool // Dst and A are one register (kind a)
	takeBranch bool // conditional branches: operand values that take it
}

func (tc opcodeCase) String() string {
	s := fmt.Sprintf("%v/dst %s/a %s/b %s", tc.op, resNames[tc.dst], resNames[tc.a], resNames[tc.b])
	if tc.dstIsA {
		s += "/dst is a"
	}
	if tc.takeBranch {
		s += "/taken"
	}
	return s
}

// opcodeProgram builds a program around one instruction shape: a long
// preamble block that fixes the register assignment and gives every
// register file a distinct non-trivial value, a short block for a boundary
// to fall in, the block with the instruction under test (twice, so its
// second run reads what its first wrote), and blocks that fold the result
// and read everything back. It returns the program and the length of the
// preamble.
func opcodeProgram(t *testing.T, tc opcodeCase) (*prog.Program, uint64) {
	t.Helper()
	dst, a, b := resRegs[tc.dst][0], resRegs[tc.a][1], resRegs[tc.b][2]
	if tc.dstIsA {
		dst = a
	}
	bld := refprog.NewBuilder(prog.MinMemSize, 0xc0de)
	bld.NewBlock()
	for r := uint8(0); r < isa.NumIntRegs; r++ {
		bld.MovI(r, int64(r+1)*0x0123456789abcdf+int64(r)) // all 64 bits, and odd shift counts
	}
	for r := uint8(5); r <= 12; r++ {
		refs := 24
		if r > 8 {
			refs = 12
		}
		for i := 0; i < refs; i++ {
			bld.Op2(isa.OpMov, r, r)
		}
	}
	for r := uint8(0); r < isa.NumFPRegs; r++ {
		bld.Op2(isa.OpFCvt, r, r) // float64 of the integer register of the same number
	}
	for r := uint8(0); r < isa.NumVecRegs; r++ {
		bld.Op2(isa.OpVBcast, r, r+3)
	}
	if tc.op.IsCondBranch() {
		// Equal operands take beq and bge; a smaller A takes bne and blt.
		equal := tc.op == isa.OpBeq || tc.op == isa.OpBge
		if equal == tc.takeBranch {
			bld.Op2(isa.OpMov, a, b)
		} else {
			bld.MovI(a, 1)
		}
	}

	bld.NewBlock() // room for a boundary between the preamble and the test
	bld.AddI(tmplOther, tmplOther, 1)
	bld.AddI(tmplFold, tmplFold, 3)

	under := bld.NewBlock()
	skipped := bld.NewBlock()
	tail := bld.NewBlock()

	bld.SetBlock(under)
	// An operand outside the integer file goes by the same number, reduced
	// to its file's size; an unused one must be zero.
	inFile := func(r uint8, f isa.RegFile) uint8 {
		switch f {
		case isa.RegNone:
			return 0
		case isa.RegVec:
			return r % isa.NumVecRegs
		}
		return r
	}
	fd, fa, fb := tc.op.Operands()
	emit := func() {
		switch {
		case tc.op == isa.OpMovI:
			bld.MovI(dst, -0x7edcba9876543211)
		case tc.op == isa.OpAddI:
			bld.AddI(dst, a, -0x123456789)
		case tc.op.IsCondBranch():
			bld.Branch(tc.op, a, b, tail)
		case tc.op == isa.OpJmp:
			bld.Jmp(tail)
		default:
			bld.Op3(tc.op, inFile(dst, fd), inFile(a, fa), inFile(b, fb))
		}
	}
	emit()
	if !tc.op.IsControl() {
		if fd == isa.RegInt {
			bld.Op3(isa.OpXor, tmplFold, tmplFold, dst)
		}
		emit() // again, on what the first wrote
	}

	bld.SetBlock(skipped) // what a taken branch or a jump steps over
	bld.AddI(tmplOther, tmplOther, 0x55)

	bld.SetBlock(tail)
	for r := uint8(0); r < isa.NumIntRegs; r++ {
		bld.Op3(isa.OpXor, tmplFold, tmplFold, r)
	}
	for r := uint8(0); r < isa.NumFPRegs; r++ {
		bld.Op2(isa.OpFToI, tmplOther, r)
		bld.Op3(isa.OpAdd, tmplFold, tmplFold, tmplOther)
	}
	for r := uint8(0); r < isa.NumVecRegs; r++ {
		bld.Op2(isa.OpVRed, tmplOther, r)
		bld.Op3(isa.OpAdd, tmplFold, tmplFold, tmplOther)
	}
	bld.Halt()
	p, err := bld.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p, uint64(p.Blocks[0].Len)
}

// opcodeCases lists, per opcode, the operand residences to cover. An
// opcode with three integer operands gets every kind in every position and
// every pair of kinds side by side, without the full cube; the in-place
// forms (Dst == A, pinned) get their own cases.
func opcodeCases() []opcodeCase {
	var cases []opcodeCase
	for op := isa.Opcode(1); op < 64; op++ {
		if !op.Valid() || op == isa.OpHalt || op == isa.OpLoad || op == isa.OpFLoad || op == isa.OpStore || op == isa.OpFStore {
			continue
		}
		fd, fa, fb := op.Operands()
		switch {
		case fd != isa.RegInt && fa != isa.RegInt && fb != isa.RegInt:
			cases = append(cases, opcodeCase{op: op})
		default:
			for k := 0; k < numRes; k++ {
				// A Latin square over (dst, a, b): each kind in each
				// position, each ordered pair of kinds adjacent once.
				cases = append(cases,
					opcodeCase{op: op, dst: k, a: (k + 1) % numRes, b: (k + 2) % numRes},
					opcodeCase{op: op, dst: k, a: k, b: (k + 3) % numRes},
					opcodeCase{op: op, dst: (k + 2) % numRes, a: k, b: k},
					opcodeCase{op: op, dst: k, a: k, b: (k + 1) % numRes, dstIsA: true},
				)
			}
		}
	}
	// Residences of operands the opcode does not have (or has in another
	// file) make no difference; drop the cases that differ only there.
	var out []opcodeCase
	seen := map[opcodeCase]bool{}
	for _, tc := range cases {
		fd, fa, fb := tc.op.Operands()
		if fd != isa.RegInt {
			tc.dst = 0
		}
		if fa != isa.RegInt {
			tc.a = 0
		}
		if fb != isa.RegInt {
			tc.b = 0
		}
		tc.dstIsA = tc.dstIsA && fd == isa.RegInt && fa == isa.RegInt
		if seen[tc] {
			continue
		}
		seen[tc] = true
		out = append(out, tc)
		if tc.op.IsCondBranch() {
			tc.takeBranch = true
			out = append(out, tc)
		}
	}
	return out
}

// TestOpcodeTemplates runs every case's program under every budget and
// every snapshot interval that puts a boundary from just before the block
// ahead of the instruction under test to just after the block behind it —
// so the block holding it retires natively in some runs and on the
// interpreter's slow path in others, entered and left through native code
// either way — plus the short intervals that make every block a boundary
// block.
func TestOpcodeTemplates(t *testing.T) {
	for _, tc := range opcodeCases() {
		t.Run(tc.String(), func(t *testing.T) {
			p, preamble := opcodeProgram(t, tc)
			m, err := vm.New(p)
			if err != nil {
				t.Fatal(err)
			}
			natural := checkSparseVsDense(t, m, p, vm.Params{}).Retired
			for n := preamble - 1; n <= preamble+9; n++ {
				checkSparseVsDense(t, m, p, vm.Params{SnapshotInterval: n})
				checkSparseVsDense(t, m, p, vm.Params{MaxInstructions: n})
			}
			for n := uint64(1); n <= 7; n++ {
				checkSparseVsDense(t, m, p, vm.Params{SnapshotInterval: n, MaxInstructions: natural - n})
			}
		})
	}
}
