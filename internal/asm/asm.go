// Package asm converts widget programs between their in-memory form
// (prog.Program) and a human-readable assembly text.
//
// The paper's widget pipeline is generator script → C source → compiler →
// native binary. This reproduction keeps the same three-stage shape: the
// perfprox generator emits assembly *text*, this package compiles it to a
// validated program, and the VM executes it. The textual stage is what the
// CLI shows when asked to dump a widget, and round-tripping through it is
// property-tested.
//
// Grammar (one statement per line, ';' starts a comment):
//
//	.mem <size> <seed>          memory declaration (decimal or 0x hex)
//	.block <n>                  start of basic block n (must be dense, in order)
//	<op> <operands>             instruction; operand shapes depend on the opcode:
//	    add r1, r2, r3          three-register ops
//	    mov r1, r2              two-register ops
//	    movi r1, -42            immediate ops
//	    addi r1, r2, 10
//	    load r1, [r2+8]         loads: dst, [base+disp]
//	    store [r2+8], r3        stores: [base+disp], src
//	    beq r1, r2, @4          conditional branches: a, b, @block
//	    jmp @0                  unconditional jump
//	    halt
package asm

import (
	"fmt"
	"strconv"
	"strings"

	"hashcore/internal/isa"
	"hashcore/internal/prog"
)

// Error is a parse error with line information.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string {
	return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg)
}

func errf(line int, format string, args ...any) error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// Assemble parses source text into a validated program, writing it through
// a prog.Builder like every other producer of programs.
func Assemble(src string) (*prog.Program, error) {
	b := prog.NewBuilder(prog.DefaultMemSize, 0)
	sawMem := false
	blocks := 0

	for lineNo, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		no := lineNo + 1

		if strings.HasPrefix(line, ".") {
			if err := parseDirective(b, line, no, &sawMem, &blocks); err != nil {
				return nil, err
			}
			continue
		}
		if blocks == 0 {
			return nil, errf(no, "instruction before any .block directive")
		}
		ins, err := parseInstr(line, no)
		if err != nil {
			return nil, err
		}
		b.Emit(ins)
	}
	if blocks == 0 {
		return nil, errf(0, "no blocks in source")
	}
	p, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("asm: assembled program invalid: %w", err)
	}
	return p, nil
}

func parseDirective(b *prog.Builder, line string, no int, sawMem *bool, blocks *int) error {
	fields := strings.Fields(line)
	switch fields[0] {
	case ".mem":
		if *sawMem {
			return errf(no, "duplicate .mem directive")
		}
		if len(fields) != 3 {
			return errf(no, ".mem wants <size> <seed>, got %d operands", len(fields)-1)
		}
		size, err := parseUint(fields[1])
		if err != nil {
			return errf(no, "bad memory size %q: %v", fields[1], err)
		}
		seed, err := parseUint(fields[2])
		if err != nil {
			return errf(no, "bad memory seed %q: %v", fields[2], err)
		}
		b.SetMemory(int(size), seed)
		*sawMem = true
		return nil
	case ".block":
		if len(fields) != 2 {
			return errf(no, ".block wants a block number")
		}
		n, err := parseUint(fields[1])
		if err != nil {
			return errf(no, "bad block number %q: %v", fields[1], err)
		}
		if n != uint64(*blocks) {
			return errf(no, "blocks must be declared densely in order: got %d, want %d",
				n, *blocks)
		}
		b.NewBlock()
		*blocks++
		return nil
	default:
		return errf(no, "unknown directive %q", fields[0])
	}
}

func parseInstr(line string, no int) (prog.Instr, error) {
	var ins prog.Instr
	mnemonic, rest, _ := strings.Cut(line, " ")
	op, ok := isa.FromMnemonic(mnemonic)
	if !ok {
		return ins, errf(no, "unknown mnemonic %q", mnemonic)
	}
	ins.Op = op

	var operands []string
	rest = strings.TrimSpace(rest)
	if rest != "" {
		operands = strings.Split(rest, ",")
		for i := range operands {
			operands[i] = strings.TrimSpace(operands[i])
		}
	}

	switch {
	case op == isa.OpHalt:
		if len(operands) != 0 {
			return ins, errf(no, "halt takes no operands")
		}
	case op == isa.OpJmp:
		if len(operands) != 1 {
			return ins, errf(no, "jmp wants @target")
		}
		t, err := parseTarget(operands[0])
		if err != nil {
			return ins, errf(no, "%v", err)
		}
		ins.Target = t
	case op.IsCondBranch():
		if len(operands) != 3 {
			return ins, errf(no, "%s wants a, b, @target", op)
		}
		a, err := parseReg(operands[0], isa.RegInt)
		if err != nil {
			return ins, errf(no, "%v", err)
		}
		b, err := parseReg(operands[1], isa.RegInt)
		if err != nil {
			return ins, errf(no, "%v", err)
		}
		t, err := parseTarget(operands[2])
		if err != nil {
			return ins, errf(no, "%v", err)
		}
		ins.A, ins.B, ins.Target = a, b, t
	case op == isa.OpLoad || op == isa.OpFLoad:
		if len(operands) != 2 {
			return ins, errf(no, "%s wants dst, [base+disp]", op)
		}
		dstFile, _, _ := op.Operands()
		dst, err := parseReg(operands[0], dstFile)
		if err != nil {
			return ins, errf(no, "%v", err)
		}
		base, disp, err := parseMemOperand(operands[1])
		if err != nil {
			return ins, errf(no, "%v", err)
		}
		ins.Dst, ins.A, ins.Imm = dst, base, disp
	case op == isa.OpStore || op == isa.OpFStore:
		if len(operands) != 2 {
			return ins, errf(no, "%s wants [base+disp], src", op)
		}
		base, disp, err := parseMemOperand(operands[0])
		if err != nil {
			return ins, errf(no, "%v", err)
		}
		_, _, bFile := op.Operands()
		src, err := parseReg(operands[1], bFile)
		if err != nil {
			return ins, errf(no, "%v", err)
		}
		ins.A, ins.B, ins.Imm = base, src, disp
	case op == isa.OpMovI:
		if len(operands) != 2 {
			return ins, errf(no, "movi wants dst, imm")
		}
		dst, err := parseReg(operands[0], isa.RegInt)
		if err != nil {
			return ins, errf(no, "%v", err)
		}
		imm, err := parseImm(operands[1])
		if err != nil {
			return ins, errf(no, "%v", err)
		}
		ins.Dst, ins.Imm = dst, imm
	case op == isa.OpAddI:
		if len(operands) != 3 {
			return ins, errf(no, "addi wants dst, a, imm")
		}
		dst, err := parseReg(operands[0], isa.RegInt)
		if err != nil {
			return ins, errf(no, "%v", err)
		}
		a, err := parseReg(operands[1], isa.RegInt)
		if err != nil {
			return ins, errf(no, "%v", err)
		}
		imm, err := parseImm(operands[2])
		if err != nil {
			return ins, errf(no, "%v", err)
		}
		ins.Dst, ins.A, ins.Imm = dst, a, imm
	default:
		// Pure register forms: count the used operand slots.
		dstFile, aFile, bFile := op.Operands()
		var want []isa.RegFile
		for _, f := range []isa.RegFile{dstFile, aFile, bFile} {
			if f != isa.RegNone {
				want = append(want, f)
			}
		}
		if len(operands) != len(want) {
			return ins, errf(no, "%s wants %d register operands, got %d", op, len(want), len(operands))
		}
		regs := make([]uint8, len(want))
		for i, operand := range operands {
			r, err := parseReg(operand, want[i])
			if err != nil {
				return ins, errf(no, "%v", err)
			}
			regs[i] = r
		}
		slot := 0
		if dstFile != isa.RegNone {
			ins.Dst = regs[slot]
			slot++
		}
		if aFile != isa.RegNone {
			ins.A = regs[slot]
			slot++
		}
		if bFile != isa.RegNone {
			ins.B = regs[slot]
		}
	}
	return ins, nil
}

func parseReg(s string, file isa.RegFile) (uint8, error) {
	if len(s) < 2 {
		return 0, fmt.Errorf("bad register %q", s)
	}
	prefix := file.Prefix()
	if s[:1] != prefix {
		return 0, fmt.Errorf("register %q: want file %q", s, prefix)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n >= file.RegCount() {
		return 0, fmt.Errorf("register %q out of range for file %q", s, prefix)
	}
	return uint8(n), nil
}

func parseTarget(s string) (uint32, error) {
	if !strings.HasPrefix(s, "@") {
		return 0, fmt.Errorf("bad branch target %q: want @block", s)
	}
	n, err := strconv.ParseUint(s[1:], 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad branch target %q: %v", s, err)
	}
	return uint32(n), nil
}

// parseMemOperand parses "[rN+disp]", "[rN-disp]" or "[rN]".
func parseMemOperand(s string) (base uint8, disp int64, err error) {
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return 0, 0, fmt.Errorf("bad memory operand %q", s)
	}
	inner := s[1 : len(s)-1]
	sep := strings.IndexAny(inner, "+-")
	regPart := inner
	if sep > 0 {
		regPart = inner[:sep]
	}
	base, err = parseReg(strings.TrimSpace(regPart), isa.RegInt)
	if err != nil {
		return 0, 0, err
	}
	if sep > 0 {
		disp, err = parseImm(strings.TrimSpace(inner[sep:]))
		if err != nil {
			return 0, 0, fmt.Errorf("bad displacement in %q: %v", s, err)
		}
	}
	return base, disp, nil
}

func parseImm(s string) (int64, error) {
	// Support an explicit leading '+' from memory-operand splitting.
	s = strings.TrimPrefix(s, "+")
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "-0x") {
		neg := strings.HasPrefix(s, "-")
		hexPart := strings.TrimPrefix(strings.TrimPrefix(s, "-"), "0x")
		u, err := strconv.ParseUint(hexPart, 16, 64)
		if err != nil {
			return 0, err
		}
		v := int64(u)
		if neg {
			v = -v
		}
		return v, nil
	}
	return strconv.ParseInt(s, 10, 64)
}

func parseUint(s string) (uint64, error) {
	if strings.HasPrefix(s, "0x") {
		return strconv.ParseUint(s[2:], 16, 64)
	}
	return strconv.ParseUint(s, 10, 64)
}
