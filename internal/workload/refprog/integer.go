package refprog

import "hashcore/internal/isa"

// leela imitates SPEC CPU 2017 641.leela_s (Go-playing Monte-Carlo tree
// search): integer-dominated, pointer-walking over a mid-size tree, with
// many data-dependent branches (win/loss outcomes) and a sprinkle of FP
// (winrate statistics). This is the paper's reference workload.
func leela(memSize int) *Builder {
	const (
		playouts = 1000
		depth    = 12
	)
	b := NewBuilder(memSize, 0x1ee1a)
	entry := b.NewBlock()
	playout := b.NewBlock()
	step := b.NewBlock()
	lose := b.NewBlock()
	win := b.NewBlock()
	cont := b.NewBlock()
	tail := b.NewBlock()
	exit := b.NewBlock()

	b.SetBlock(entry)
	b.MovI(15, playouts)
	b.MovI(14, 0)
	b.MovI(10, 3)  // outcome-bits mask (win ~25% of steps)
	b.MovI(13, 64) // node pointer
	b.MovI(0, 1)
	b.Op2(isa.OpFCvt, 3, 0) // f3 = 1.0
	b.Jmp(playout)

	b.SetBlock(playout)
	b.MovI(11, depth)
	b.Jmp(step)

	// One playout step: visit node, accumulate eval, branch on the
	// (data-dependent) outcome bits, follow the child pointer. The
	// pointer is stirred with the playout counter so the walk never
	// settles into a short cycle of the memory's functional graph —
	// real MCTS visits fresh tree nodes every playout.
	b.SetBlock(step)
	b.Load(9, 13, 0) // node = mem[ptr]
	b.Load(7, 13, 8) // aux payload (same cache line)
	b.Op3(isa.OpXor, 12, 12, 9)
	b.Op3(isa.OpAdd, 8, 8, 7)
	b.Op3(isa.OpAnd, 1, 9, 10)  // outcome bits
	b.Op3(isa.OpAdd, 13, 9, 15) // chase child, stirred by playout ctr
	b.Branch(isa.OpBeq, 1, 14, win)

	b.SetBlock(lose)
	b.AddI(8, 8, -1)
	b.Op3(isa.OpXor, 12, 12, 7)
	b.Jmp(cont)

	b.SetBlock(win)
	b.AddI(8, 8, 1)
	b.Op3(isa.OpMul, 6, 9, 7)
	b.Jmp(cont)

	b.SetBlock(cont)
	b.AddI(11, 11, -1)
	b.Branch(isa.OpBne, 11, 14, step)

	// Playout tail: update winrate statistics in FP and store the
	// evaluation back into the tree.
	b.SetBlock(tail)
	b.Op2(isa.OpFCvt, 1, 8)
	b.Op3(isa.OpFAdd, 2, 2, 3)
	b.Op3(isa.OpFDiv, 4, 1, 2)
	b.Store(13, 8, 16)
	b.AddI(15, 15, -1)
	b.Branch(isa.OpBne, 15, 14, playout)

	b.SetBlock(exit)
	b.Halt()
	return b
}

// mcf imitates SPEC 605.mcf_s (network simplex): dominated by dependent
// pointer chasing over a working set far larger than the last-level cache,
// with comparison-driven updates.
func mcf(memSize int) *Builder {
	const iters = 11500
	b := NewBuilder(memSize, 0xacf)
	entry := b.NewBlock()
	loop := b.NewBlock()
	better := b.NewBlock()
	cont := b.NewBlock()
	exit := b.NewBlock()

	b.SetBlock(entry)
	b.MovI(15, iters)
	b.MovI(14, 0)
	b.MovI(13, 128) // arc pointer
	b.MovI(5, 0)    // running best cost
	b.MovI(3, 3)    // low-bits mask for the update decision
	b.Jmp(loop)

	b.SetBlock(loop)
	b.Load(9, 13, 0) // next arc (pointer chase)
	b.Load(7, 13, 8) // arc cost
	b.Op2(isa.OpMov, 13, 9)
	b.Op3(isa.OpXor, 12, 12, 7)
	b.Op3(isa.OpCmpLT, 2, 7, 5) // cost comparison (value flavour)
	b.Op3(isa.OpAnd, 6, 7, 3)   // data-dependent update decision (~25% taken)
	b.Branch(isa.OpBeq, 6, 14, better)

	b.SetBlock(better)
	b.Op2(isa.OpMov, 5, 7)
	b.Store(13, 5, 16)
	b.Jmp(cont)

	b.SetBlock(cont)
	b.Op3(isa.OpAdd, 4, 4, 9)
	b.AddI(15, 15, -1)
	b.Branch(isa.OpBne, 15, 14, loop)

	b.SetBlock(exit)
	b.Halt()
	return b
}

// deepsjeng imitates SPEC 631.deepsjeng_s (chess alpha-beta search):
// integer evaluation with explicit stack traffic and frequent
// moderately-biased data-dependent branches (pruning decisions).
func deepsjeng(memSize int) *Builder {
	const nodes = 11000
	b := NewBuilder(memSize, 0xd5)
	entry := b.NewBlock()
	loop := b.NewBlock()
	expand := b.NewBlock() // fallthrough target of the prune branch
	prune := b.NewBlock()
	cont := b.NewBlock()
	exit := b.NewBlock()

	b.SetBlock(entry)
	b.MovI(15, nodes)
	b.MovI(14, 0)
	b.MovI(13, 1<<21) // stack pointer (upper half of memory)
	b.MovI(10, 0)     // position cursor
	b.MovI(7, 3)
	b.MovI(6, 17)
	b.Jmp(loop)

	b.SetBlock(loop)
	b.Load(1, 10, 0) // fetch position data
	b.Op3(isa.OpMul, 2, 1, 6)
	b.Op3(isa.OpXor, 3, 3, 2)
	b.Op3(isa.OpShr, 4, 1, 7)
	b.Op3(isa.OpAnd, 4, 4, 7) // 2-bit field: prune if zero (25%)
	b.Op2(isa.OpMov, 10, 2)   // next position (data-driven)
	b.Branch(isa.OpBeq, 4, 14, prune)

	b.SetBlock(expand)
	// Push the node.
	b.Store(13, 3, 0)
	b.AddI(13, 13, 8)
	b.Op3(isa.OpAdd, 8, 8, 1)
	b.Jmp(cont)

	b.SetBlock(prune)
	// Pop the stack (backtrack).
	b.AddI(13, 13, -8)
	b.Load(9, 13, 0)
	b.Jmp(cont)

	b.SetBlock(cont)
	b.AddI(15, 15, -1)
	b.Branch(isa.OpBne, 15, 14, loop)

	b.SetBlock(exit)
	b.Halt()
	return b
}

// exchange2 imitates SPEC 648.exchange2_s (recursive Sudoku-style puzzle
// generator): almost pure integer arithmetic over a tiny working set with
// deeply nested counted loops whose branches are highly predictable.
func exchange2(memSize int) *Builder {
	const (
		outerN = 24
		midN   = 30
		innerN = 30
	)
	b := NewBuilder(memSize, 0xe2)
	entry := b.NewBlock()
	outer := b.NewBlock()
	mid := b.NewBlock()
	inner := b.NewBlock()
	midTail := b.NewBlock()
	outerTail := b.NewBlock()
	exit := b.NewBlock()

	b.SetBlock(entry)
	b.MovI(15, outerN)
	b.MovI(14, 0)
	b.MovI(10, 0x9e37)
	b.MovI(13, 5) // shift amount
	b.Jmp(outer)

	b.SetBlock(outer)
	b.MovI(11, midN)
	b.Load(9, 15, 0) // occasional small-table load
	b.Jmp(mid)

	b.SetBlock(mid)
	b.MovI(12, innerN)
	b.Jmp(inner)

	b.SetBlock(inner)
	b.Op3(isa.OpAdd, 1, 1, 10)
	b.Op3(isa.OpXor, 2, 2, 1)
	b.Op3(isa.OpShl, 3, 1, 13)
	b.Op3(isa.OpOr, 3, 3, 2)
	b.Op3(isa.OpSub, 4, 3, 1)
	b.AddI(12, 12, -1)
	b.Branch(isa.OpBne, 12, 14, inner)

	b.SetBlock(midTail)
	b.Op3(isa.OpMul, 5, 1, 2)
	b.AddI(11, 11, -1)
	b.Branch(isa.OpBne, 11, 14, mid)

	b.SetBlock(outerTail)
	b.Store(15, 5, 0)
	b.AddI(15, 15, -1)
	b.Branch(isa.OpBne, 15, 14, outer)

	b.SetBlock(exit)
	b.Halt()
	return b
}
