//go:build amd64 && linux

#include "textflag.h"
#include "go_asm.h"

// func stampRun(c *Compiler, t *tmplTable, ins *prog.Instr, n int, buf unsafe.Pointer, pos, room int, fixp unsafe.Pointer, callBase *[4]int32) (next *prog.Instr, newPos int, newFixp unsafe.Pointer)
//
// The stamp loop proper (template_amd64.go describes what a stamp is):
// it stamps ins[0:n] at buf+pos until an instruction has no template or
// pos passes room, and returns the first instruction it did not stamp
// with the cursors as they then stand. It is assembly because the loop is
// the per-hash compiler — some hundred and fifty instructions an
// iteration as the Go compiler lays it out, under a hundred here — and it
// needs every register: field offsets come from go_asm.h (prog.Instr's as
// the package's instr* constants), and TestStampedEqualsEncoded holds every
// template it can stamp to the encoder's bytes.
//
//	SI  instruction     R8   pos       R10  c      R12  buf
//	R13 end of ins      R9   fixp      R11  t      BX   template
//	DI  shape, then the stamp's address; AX CX DX R14 R15 scratch
TEXT ·stampRun(SB), NOSPLIT, $16-96
	MOVQ R14, save14-8(SP)
	MOVQ R15, save15-16(SP)
	MOVQ c+0(FP), R10
	MOVQ t+8(FP), R11
	MOVQ ins+16(FP), SI
	MOVQ n+24(FP), R13
	IMULQ $const_instrSize, R13
	ADDQ SI, R13
	MOVQ buf+32(FP), R12
	MOVQ pos+40(FP), R8
	MOVQ fixp+56(FP), R9

loop:
	CMPQ SI, R13
	JAE  done
	CMPQ R8, room+48(FP)
	JGT  done

	// Opcode and operand bytes in one load: op, class, dst, a, b.
	MOVQ const_instrOp(SI), AX
	MOVBLZX AL, BX
	CMPL BX, $const_numOps
	JAE  done
	MOVQ AX, CX
	SHRQ $16, CX
	MOVBLZX CL, CX // dst
	MOVQ AX, DX
	SHRQ $24, DX
	MOVBLZX DL, DX // a
	SHRQ $32, AX
	MOVBLZX AL, AX // b

	// The shape's register half (regShape): 3|eq masks Dst's kind.
	MOVL CX, DI
	XORL DX, DI
	DECL DI
	SHRL $25, DI
	ANDL $const_shapeEq, DI
	ORL  $3, DI
	MOVBLZX Compiler_kindDst(R10)(CX*1), R14
	ANDL R14, DI
	MOVBLZX Compiler_kindA(R10)(DX*1), R14
	ORL  R14, DI
	MOVBLZX Compiler_kindB(R10)(AX*1), R14
	ORL  R14, DI

	// The immediate's width class (immClass): one for each of non-zero,
	// not an int8, not an int32.
	MOVQ const_instrImm(SI), R15
	XORL CX, CX
	TESTQ R15, R15
	SETNE CL
	MOVBQSX R15, DX
	XORL AX, AX
	CMPQ DX, R15
	SETNE AL
	ADDL AX, CX
	MOVLQSX R15, DX
	XORL AX, AX
	CMPQ DX, R15
	SETNE AL
	ADDL AX, CX
	SHLL $const_shapeImmShift, CX
	ORL  CX, DI

	// The template (tmplTable.lookup).
	MOVWLZX tmplTable_shapeMask(R11)(BX*2), AX
	ANDL AX, DI
	SHLL $const_shapeBits, BX
	ORL  DI, BX
	MOVWLZX tmplTable_index(R11)(BX*2), AX
	TESTL AX, AX
	JEQ  done
	IMULQ $template__size, AX
	LEAQ tmplTable_templates(R11)(AX*1), BX

	// Copy.
	LEAQ (R12)(R8*1), DI
	MOVOU 0(BX), X0
	MOVOU 16(BX), X1
	MOVOU 32(BX), X2
	MOVOU 48(BX), X3
	MOVOU X0, 0(DI)
	MOVOU X1, 16(DI)
	MOVOU X2, 32(DI)
	MOVOU X3, 48(DI)

	// The immediate, stored whole over the template's own bytes.
	MOVBLZX template_immOff(BX), AX
	ANDQ template_immMask(BX), R15
	ORQ  (BX)(AX*1), R15
	MOVQ R15, (DI)(AX*1)

	// The CALL's displacement: routine - (site + 4).
	MOVBLZX template_callSel(BX), AX
	MOVQ callBase+64(FP), CX
	MOVL (CX)(AX*4), DX
	MOVBLZX template_callOff(BX), AX
	SUBL R8, DX
	SUBL AX, DX
	MOVL DX, (DI)(AX*1)

	// One byte per register operand.
	MOVBLZX const_instrDst(SI), CX
	MOVBLZX template_lay+0(BX), AX
	ORL  CX, AX
	MOVBLZX Compiler_patch(R10)(AX*1), AX
	MOVBLZX template_off+0(BX), CX
	ORB  AL, (DI)(CX*1)
	MOVBLZX const_instrA(SI), CX
	MOVBLZX template_lay+1(BX), AX
	ORL  CX, AX
	MOVBLZX Compiler_patch(R10)(AX*1), AX
	MOVBLZX template_off+1(BX), CX
	ORB  AL, (DI)(CX*1)
	MOVBLZX const_instrB(SI), CX
	MOVBLZX template_lay+2(BX), AX
	ORL  CX, AX
	MOVBLZX Compiler_patch(R10)(AX*1), AX
	MOVBLZX template_off+2(BX), CX
	ORB  AL, (DI)(CX*1)

	// The fixup slot, kept only if the template has one.
	MOVL template_fix(BX), AX
	ADDL R8, AX
	MOVL const_instrTarget(SI), CX
	SHLQ $const_fixBlockShift, CX
	ORQ  CX, AX
	MOVQ AX, (R9)
	MOVBLZX template_nfix(BX), AX
	LEAQ (R9)(AX*8), R9

	MOVBLZX template_n(BX), AX
	ADDQ AX, R8
	ADDQ $const_instrSize, SI
	JMP  loop

done:
	MOVQ SI, next+72(FP)
	MOVQ R8, newPos+80(FP)
	MOVQ R9, newFixp+88(FP)
	MOVQ save14-8(SP), R14
	MOVQ save15-16(SP), R15
	RET
