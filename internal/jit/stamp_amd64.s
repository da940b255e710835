//go:build amd64 && linux

#include "textflag.h"
#include "go_asm.h"

// func stampBlocks(t *tmplTable, code *prog.Instr, blocks *prog.Block, nb int, heads *int32, bi, i, end int, buf unsafe.Pointer, pos, room int, fixp unsafe.Pointer, callBase *[8]int32) (newBi, newI, newEnd, newPos int, newFixp unsafe.Pointer)
//
// The stamp loop proper (template_amd64.go describes what a stamp is): it
// stamps the program's blocks at buf+pos, each block's head and then its
// instructions, until every block is done (newBi = nb), an instruction
// has no template, or pos passes room, and returns the cursors as they
// then stand. The state is block bi, stamped up to byte offset i of code,
// whose instructions end at byte offset end; a caller starts it at
// bi = -1 and i = end = 0, which stamps block 0's head first, and passes
// back what it was returned to go on. heads[bi] receives each head's
// position. It is assembly because the loop is the per-hash compiler —
// some hundred and fifty instructions an iteration as the Go compiler
// lays it out, under a hundred here — and it needs every register: field
// offsets come from go_asm.h (prog.Instr's and prog.Block's as the
// package's instr* and block* constants), and TestStampedEqualsEncoded
// holds every template it can stamp to the encoder's bytes.
//
//	SI  instruction     R8   pos       R11  t      R12  buf
//	R13 end of block    R9   fixp      BX   template
//	DI  shape, then the stamp's address; AX CX DX R14 R15 scratch
TEXT ·stampBlocks(SB), NOSPLIT, $16-144
	MOVQ R14, save14-8(SP)
	MOVQ R15, save15-16(SP)
	MOVQ t+0(FP), R11
	MOVQ code+8(FP), AX
	MOVQ i+48(FP), SI
	ADDQ AX, SI
	MOVQ end+56(FP), R13
	ADDQ AX, R13
	MOVQ buf+64(FP), R12
	MOVQ pos+72(FP), R8
	MOVQ fixp+88(FP), R9

loop:
	CMPQ SI, R13
	JAE  nextBlock
	CMPQ R8, room+80(FP)
	JGT  done

	// The opcode and the operand bytes.
	MOVBLZX const_instrOp(SI), BX
	CMPL BX, $const_numOps
	JAE  done
	MOVBLZX const_instrDst(SI), CX
	MOVBLZX const_instrA(SI), DX
	MOVBLZX const_instrB(SI), AX

	// The shape's register half (regShape): 3|eq masks Dst's kind.
	MOVL CX, DI
	XORL DX, DI
	DECL DI
	SHRL $25, DI
	ANDL $const_shapeEq, DI
	ORL  $3, DI
	MOVBLZX tmplTable_kindDst(R11)(CX*1), R14
	ANDL R14, DI
	MOVBLZX tmplTable_kindA(R11)(DX*1), R14
	ORL  R14, DI
	MOVBLZX tmplTable_kindB(R11)(AX*1), R14
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
	MOVQ callBase+96(FP), CX
	MOVL (CX)(AX*4), DX
	MOVBLZX template_callOff(BX), AX
	SUBL R8, DX
	SUBL AX, DX
	MOVL DX, (DI)(AX*1)

	// One byte per register operand.
	MOVBLZX const_instrDst(SI), CX
	MOVBLZX template_lay+0(BX), AX
	ORL  CX, AX
	MOVBLZX tmplTable_patch(R11)(AX*1), AX
	MOVBLZX template_off+0(BX), CX
	ORB  AL, (DI)(CX*1)
	MOVBLZX const_instrA(SI), CX
	MOVBLZX template_lay+1(BX), AX
	ORL  CX, AX
	MOVBLZX tmplTable_patch(R11)(AX*1), AX
	MOVBLZX template_off+1(BX), CX
	ORB  AL, (DI)(CX*1)
	MOVBLZX const_instrB(SI), CX
	MOVBLZX template_lay+2(BX), AX
	ORL  CX, AX
	MOVBLZX tmplTable_patch(R11)(AX*1), AX
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

nextBlock:
	// The head of block bi+1, if there is one and room for it.
	MOVQ bi+40(FP), AX
	INCQ AX
	CMPQ AX, nb+24(FP)
	JAE  finished
	CMPQ R8, room+80(FP)
	JGT  done
	MOVQ AX, bi+40(FP)
	MOVQ heads+32(FP), CX
	MOVL R8, (CX)(AX*4)
	MOVQ blocks+16(FP), CX
	MOVL const_blockLen(CX)(AX*8), DX // the instruction count (prog.Block is 8 bytes)
	IMUL3Q $const_instrSize, DX, CX
	LEAQ (SI)(CX*1), R13

	// The head's form (blockForm): whether the count needs four bytes.
	XORL CX, CX
	CMPL DX, $127
	SETHI CL
	IMULQ $blockTmpl__size, CX
	LEAQ tmplTable_heads(R11)(CX*1), BX

	// Copy, and the count stored whole over the template's own bytes (a
	// head has no block index: blockTmpl.stamp's second store rewrites
	// copied bytes).
	LEAQ (R12)(R8*1), DI
	MOVOU 0(BX), X0
	MOVOU 16(BX), X1
	MOVOU X0, 0(DI)
	MOVOU X1, 16(DI)
	MOVBLZX blockTmpl_countOff(BX), CX
	ANDL blockTmpl_countMask(BX), DX
	ORL  (BX)(CX*1), DX
	MOVL DX, (DI)(CX*1)
	MOVBLZX blockTmpl_n(BX), CX
	ADDQ CX, R8
	JMP  loop

finished:
	MOVQ AX, bi+40(FP)

done:
	MOVQ bi+40(FP), AX
	MOVQ AX, newBi+104(FP)
	MOVQ code+8(FP), AX
	SUBQ AX, SI
	MOVQ SI, newI+112(FP)
	SUBQ AX, R13
	MOVQ R13, newEnd+120(FP)
	MOVQ R8, newPos+128(FP)
	MOVQ R9, newFixp+136(FP)
	MOVQ save14-8(SP), R14
	MOVQ save15-16(SP), R15
	RET
