package vm

import (
	"hashcore/internal/isa"
	"hashcore/internal/prog"
)

// The fused stream: what the block-batched fast loop dispatches.
//
// It is derived from the program's code per block, on the first interpreter
// run of a load, by two rewrites that change no semantics — only how many
// trips through the dispatch switch a block costs:
//
// Trailing jumps become metadata. A block that ends in an unconditional
// jmp always continues at that jump's target, so the jump is recorded as
// the block's successor (blockMeta.next, otherwise the following block)
// and takes no slot at all. It still retires: the block's architectural
// count is the block table's.
//
// Hot adjacent pairs become superinstructions. Every branch diamond the
// generator emits conditions on ror+and feeding cmplt+bne, and the filler
// stream is dense in {add,sub,xor} adjacencies; each such pair costs two
// dispatches unfused and one fused. A fused opcode executes exactly "first
// half, then second half" (so intra-pair register dependencies behave
// identically) and retires as two architectural instructions. isa.Fuse
// decides which opcodes pair — the set is held to a measured threshold,
// see isa — and this file owns how a pair packs into one slot. The stream
// is vm's own format, built by copying, and reuses prog.Instr as its slot:
// an unfused slot is the program's instruction as it stands, and a fused
// one keeps the record's meanings except for Imm, which no fused pair
// carries and which holds the second half's registers instead:
//
//	cmplt+bne  Dst,A,B = the compare; Imm = x | y<<8 (the branch's
//	           registers); Target = the branch's target block
//	ALU pairs  (ror+and, {add,sub,xor}²) Dst,A,B = the first op;
//	           Imm = d2 | a2<<8 | b2<<16 (the second)
//
// Target is a block index here as everywhere: the block-batched loop
// transfers between blocks. Fusion never crosses a block boundary; a
// pair's second half may be the block terminator. The reference step
// (step) always executes the program's own code, so a snapshot or budget
// boundary can never fall "inside" a fused pair or on a folded jump: any
// block where that could happen is executed unfused.

// tryFuse returns the fused superinstruction for the adjacent pair (a, b),
// or ok=false when the opcodes do not pair.
func tryFuse(a, b *prog.Instr) (prog.Instr, bool) {
	op, ok := isa.Fuse(a.Op, b.Op)
	if !ok {
		return prog.Instr{}, false
	}
	fi := prog.Instr{Op: op, Dst: a.Dst, A: a.A, B: a.B}
	if b.Op.IsCondBranch() {
		fi.Imm = int64(b.A) | int64(b.B)<<8
		fi.Target = b.Target
	} else {
		fi.Imm = int64(b.Dst) | int64(b.A)<<8 | int64(b.B)<<16
	}
	return fi, true
}

// appendFusedBlock appends the fused translation of one block's
// instructions to dst and returns the block's successor: the target of its
// trailing jmp, which is then left out of the stream, or else fallThrough.
// The rest is a greedy left-to-right peephole: each instruction either
// fuses with its right neighbour or is copied through.
func appendFusedBlock(dst []prog.Instr, code []prog.Instr, fallThrough uint32) ([]prog.Instr, uint32) {
	next := fallThrough
	if n := len(code); n > 0 && code[n-1].Op == isa.OpJmp {
		next = code[n-1].Target
		code = code[:n-1]
	}
	for i := 0; i < len(code); i++ {
		if i+1 < len(code) {
			if fi, ok := tryFuse(&code[i], &code[i+1]); ok {
				dst = append(dst, fi)
				i++
				continue
			}
		}
		dst = append(dst, code[i])
	}
	return dst, next
}
