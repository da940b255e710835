package vm

import "hashcore/internal/isa"

// The fused stream: what the block-batched fast loop dispatches.
//
// It is derived from the unfused code per block, on the first interpreter
// run of a load, by two rewrites that change no semantics — only how many
// trips through the dispatch switch a block costs:
//
// Trailing jumps become metadata. A block that ends in an unconditional
// jmp always continues at that jump's target, so the jump is recorded as
// the block's successor (blockMeta.next, otherwise the following block)
// and takes no slot at all. It still retires: the block's architectural
// count and class tally are those of the unfused code.
//
// Hot adjacent pairs become superinstructions. Every branch diamond the
// generator emits conditions on ror+and feeding cmplt+bne, and the filler
// stream is dense in {add,sub,xor} adjacencies; each such pair costs two
// dispatches unfused and one fused. A fused opcode executes exactly "first
// half, then second half" (so intra-pair register dependencies behave
// identically) and retires as two architectural instructions. isa.Fuse
// decides which opcodes pair — the set is held to a measured threshold,
// see isa — and this file owns how a pair packs into one flatInstr:
//
//	cmplt+bne  dst,a,b = the compare; aux = x | y<<8 (the branch's
//	           registers); target = the branch's target block
//	ALU pairs  (ror+and, {add,sub,xor}²) dst,a,b = the first op;
//	           aux = d2 | a2<<8 | b2<<16 (the second)
//
// Fusion never crosses a block boundary; a pair's second half may be the
// block terminator. The reference step (step) always executes the
// unfused stream, so a snapshot or budget boundary can never fall "inside"
// a fused pair or on a folded jump: any block where that could happen is
// executed unfused.

// tryFuse returns the fused superinstruction for the adjacent unfused pair
// (a, b), or ok=false when the opcodes do not pair.
func tryFuse(a, b *flatInstr) (flatInstr, bool) {
	op, ok := isa.Fuse(a.op, b.op)
	if !ok {
		return flatInstr{}, false
	}
	fi := flatInstr{op: op, dst: a.dst, a: a.a, b: a.b}
	if b.op.IsCondBranch() {
		fi.aux = uint32(b.a) | uint32(b.b)<<8
		fi.target = b.aux // branch target as a block index
	} else {
		fi.aux = uint32(b.dst) | uint32(b.a)<<8 | uint32(b.b)<<16
	}
	return fi, true
}

// appendFusedBlock appends the fused translation of one block's unfused
// instruction stream to dst and returns the block's successor: the target
// of its trailing jmp, which is then left out of the stream, or else
// fallThrough. The rest is a greedy left-to-right peephole: each
// instruction either fuses with its right neighbour or is copied through,
// with control targets rewritten from flat pcs to block indices (the
// block-batched loop transfers between blocks).
func appendFusedBlock(dst []flatInstr, code []flatInstr, fallThrough uint32) ([]flatInstr, uint32) {
	next := fallThrough
	if n := len(code); n > 0 && code[n-1].op == isa.OpJmp {
		next = code[n-1].aux
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
		fi := code[i]
		if fi.op.IsCondBranch() {
			fi.target = fi.aux
		}
		dst = append(dst, fi)
	}
	return dst, next
}
