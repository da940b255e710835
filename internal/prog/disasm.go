package prog

import (
	"fmt"
	"strings"

	"hashcore/internal/isa"
)

// Disassemble renders a program as assembly text, the reproduction's
// analogue of the paper's generated C source. The text is a view of the
// program, never an input: nothing parses it back. It renders everything
// a run reads — the memory declaration, the block boundaries, each op and
// the operands it reads — so changing any of it changes the text (the
// operands and the memory declaration are tested field by field on
// generated widgets, and the text is pinned per profile).
func Disassemble(p *Program) string {
	var b strings.Builder
	fmt.Fprintf(&b, "; widget: %d blocks, %d instructions\n", len(p.Blocks), p.NumInstrs())
	fmt.Fprintf(&b, ".mem %d 0x%x\n", p.MemSize, p.MemSeed)
	for bi := range p.Blocks {
		fmt.Fprintf(&b, ".block %d\n", bi)
		for _, ins := range p.Instrs(bi) {
			b.WriteString("\t")
			b.WriteString(FormatInstr(ins))
			b.WriteString("\n")
		}
	}
	return b.String()
}

// FormatInstr renders a single instruction in assembly syntax.
func FormatInstr(ins Instr) string {
	if ins.Op == isa.OpHalt {
		return "halt"
	}
	return ins.Op.String() + " " + operands(ins)
}

// FormatFusedPair renders a fused superinstruction as its mnemonic
// followed by both architectural halves' operand lists. The halves are the
// decoded pair a fused execution slot retires (so register dependencies,
// branch targets and displacements read exactly as in the unfused
// listing); callers that execute fused code reconstruct them from the
// packed encoding. Example: cmplt.bne r3, r1, r2 | r3, r0, @7.
func FormatFusedPair(op isa.Opcode, first, second Instr) string {
	return op.String() + " " + operands(first) + " | " + operands(second)
}

// operands renders an instruction's operand list (everything after the
// mnemonic).
func operands(ins Instr) string {
	op := ins.Op
	switch {
	case op == isa.OpHalt:
		return ""
	case op == isa.OpJmp:
		return fmt.Sprintf("@%d", ins.Target)
	case op.IsCondBranch():
		return fmt.Sprintf("r%d, r%d, @%d", ins.A, ins.B, ins.Target)
	case op == isa.OpLoad || op == isa.OpFLoad:
		dstFile, _, _ := op.Operands()
		return fmt.Sprintf("%s%d, %s", dstFile.Prefix(), ins.Dst, memOperand(ins.A, ins.Imm))
	case op == isa.OpStore || op == isa.OpFStore:
		_, _, bFile := op.Operands()
		return fmt.Sprintf("%s, %s%d", memOperand(ins.A, ins.Imm), bFile.Prefix(), ins.B)
	case op == isa.OpMovI:
		return fmt.Sprintf("r%d, %d", ins.Dst, ins.Imm)
	case op == isa.OpAddI:
		return fmt.Sprintf("r%d, r%d, %d", ins.Dst, ins.A, ins.Imm)
	default:
		dstFile, aFile, bFile := op.Operands()
		parts := make([]string, 0, 3)
		if dstFile != isa.RegNone {
			parts = append(parts, fmt.Sprintf("%s%d", dstFile.Prefix(), ins.Dst))
		}
		if aFile != isa.RegNone {
			parts = append(parts, fmt.Sprintf("%s%d", aFile.Prefix(), ins.A))
		}
		if bFile != isa.RegNone {
			parts = append(parts, fmt.Sprintf("%s%d", bFile.Prefix(), ins.B))
		}
		return strings.Join(parts, ", ")
	}
}

func memOperand(base uint8, disp int64) string {
	switch {
	case disp == 0:
		return fmt.Sprintf("[r%d]", base)
	case disp < 0:
		return fmt.Sprintf("[r%d-%d]", base, -disp)
	default:
		return fmt.Sprintf("[r%d+%d]", base, disp)
	}
}
