package refprog

import "hashcore/internal/isa"

// lbm imitates SPEC 619.lbm_s (lattice Boltzmann fluid simulation): a
// floating-point stencil sweeping sequentially over a large array, with
// highly predictable control flow and streaming memory behaviour.
func lbm(memSize int) *Builder {
	const (
		sweeps = 10
		cells  = 1300
	)
	b := NewBuilder(memSize, 0x1b)
	entry := b.NewBlock()
	sweep := b.NewBlock()
	cell := b.NewBlock()
	sweepTail := b.NewBlock()
	exit := b.NewBlock()

	b.SetBlock(entry)
	b.MovI(15, sweeps)
	b.MovI(14, 0)
	b.MovI(0, 63)
	b.Op2(isa.OpFCvt, 7, 0) // f7: relaxation-ish constant
	b.MovI(0, 64)
	b.Op2(isa.OpFCvt, 6, 0)
	b.Op3(isa.OpFDiv, 7, 7, 6) // f7 = 63/64 = 0.984375
	b.Jmp(sweep)

	b.SetBlock(sweep)
	b.MovI(11, cells)
	b.MovI(13, 0) // cell pointer
	b.Jmp(cell)

	// One stencil cell: read three neighbours, combine, relax, write.
	b.SetBlock(cell)
	b.FLoad(1, 13, 0)
	b.FLoad(2, 13, 8)
	b.FLoad(3, 13, 16)
	b.Op3(isa.OpFMul, 4, 1, 2)
	b.Op3(isa.OpFAdd, 5, 4, 3)
	b.Op3(isa.OpFMul, 8, 5, 7)
	b.Op3(isa.OpFAdd, 9, 9, 8)
	b.FStore(13, 8, 24)
	b.AddI(13, 13, 32)
	b.AddI(11, 11, -1)
	b.Branch(isa.OpBne, 11, 14, cell)

	b.SetBlock(sweepTail)
	b.AddI(15, 15, -1)
	b.Branch(isa.OpBne, 15, 14, sweep)

	b.SetBlock(exit)
	b.Halt()
	return b
}

// x264 imitates SPEC 625.x264_s (video encoding): SIMD-style sum of
// absolute differences over strided macroblock rows, mixing vector
// arithmetic with integer address math and threshold branches.
func x264(memSize int) *Builder {
	const blocks = 10000
	b := NewBuilder(memSize, 0x264)
	entry := b.NewBlock()
	loop := b.NewBlock()
	accept := b.NewBlock() // fallthrough of the threshold branch
	skip := b.NewBlock()
	cont := b.NewBlock()
	exit := b.NewBlock()

	b.SetBlock(entry)
	b.MovI(15, blocks)
	b.MovI(14, 0)
	b.MovI(13, 0) // row pointer
	b.MovI(6, 7)  // SAD low-bits mask for the accept decision
	b.Jmp(loop)

	// One macroblock row: two reference rows into vectors, SAD-style
	// reduce, threshold decision.
	b.SetBlock(loop)
	b.Load(1, 13, 0)
	b.Load(2, 13, 8)
	b.Op2(isa.OpVBcast, 1, 1)
	b.Op2(isa.OpVBcast, 2, 2)
	b.Op3(isa.OpVXor, 3, 1, 2)
	b.Op3(isa.OpVAdd, 4, 4, 3)
	b.Op3(isa.OpVMul, 5, 3, 1)
	b.Op2(isa.OpVRed, 3, 4)
	b.Op3(isa.OpSub, 4, 1, 2)
	b.Op3(isa.OpAnd, 5, 3, 6) // data-dependent accept decision (~1/8 taken)
	b.Branch(isa.OpBeq, 5, 14, skip)

	b.SetBlock(accept)
	b.Op3(isa.OpAdd, 7, 7, 3)
	b.Jmp(cont)

	b.SetBlock(skip)
	b.Op3(isa.OpXor, 7, 7, 4)
	b.Jmp(cont)

	b.SetBlock(cont)
	b.AddI(13, 13, 64) // next strided row
	b.AddI(15, 15, -1)
	b.Branch(isa.OpBne, 15, 14, loop)

	b.SetBlock(exit)
	b.Halt()
	return b
}
