package perfprox

import (
	"hashcore/internal/isa"
	"hashcore/internal/prog"
)

// diamondKind classifies the conditional branch of a diamond.
type diamondKind uint8

const (
	diamondDataDep     diamondKind = iota // data-dependent, biased by thresh
	diamondStaticTaken                    // beq r14,r14: always taken
	diamondStaticNot                      // bne r14,r14: never taken
)

// fillerClasses lists the classes emitBody draws filler instructions
// from, in the fixed order the budget-weighted picker uses.
var fillerClasses = [...]isa.Class{
	isa.ClassIntALU, isa.ClassIntMul, isa.ClassFPALU,
	isa.ClassLoad, isa.ClassStore, isa.ClassVector,
}

// cur tracks the block currently being emitted into; genState.emit* keep it
// up to date.
type emitCtx struct {
	cur prog.Label
}

// emitEntry writes the initialization block: register pools, role
// registers, residual instructions (class budget remainders that do not
// divide evenly by the trip count), then falls through to the body.
func (st *genState) emitEntry() {
	b := &st.b
	b.MovI(regCounter, int64(st.params.LoopTrips))
	b.MovI(regZero, 0)
	b.MovI(regMask, 255)
	b.MovI(regThresh, st.thresh)
	b.MovI(regShiftA, int64(1+st.branchRng.Intn(62)))
	b.MovI(regShiftB, int64(1+st.branchRng.Intn(62)))
	b.MovI(regScratch, 0)

	wsMask := uint64(st.prof.WorkingSet - 1)
	b.MovI(regSeq, int64(st.mem.Next()&wsMask))
	b.MovI(regStride, int64(st.mem.Next()&wsMask))
	b.MovI(regEntropy, int64(st.mem.Next()))
	b.MovI(regChase, int64(st.mem.Next()&wsMask))

	// General pools: deterministic pseudo-random initial values.
	for i := 0; i < regPoolSize; i++ {
		b.MovI(uint8(i), int64(st.bbv.Next()))
	}
	for i := 0; i < isa.NumFPRegs; i++ {
		b.Op2(isa.OpFCvt, uint8(i), uint8(i%regPoolSize))
	}
	for i := 0; i < isa.NumVecRegs; i++ {
		b.Op2(isa.OpVBcast, uint8(i), uint8(i%regPoolSize))
	}

	// Residual instructions (executed once, not per iteration). Branch
	// residuals are dropped: a sub-0.2% undercount, documented in
	// DESIGN.md.
	for _, class := range fillerClasses {
		for i := 0; i < st.residual[class]; i++ {
			st.emitFiller(class)
		}
	}
}

// emitBody writes the loop body: filler instructions grouped into basic
// blocks, diamonds spread evenly through the stream, then the bookkeeping
// tail and the exit block.
func (st *genState) emitBody() error {
	b := &st.b

	// Working copies of the per-iteration budgets for filler classes.
	st.work = [isa.NumClasses]int{}
	totalFiller := 0
	for _, class := range fillerClasses {
		st.work[class] = st.budget[class]
		totalFiller += st.budget[class]
	}

	// Pre-plan diamond kinds, shuffled so kinds interleave through the
	// body rather than clustering.
	kinds := st.kinds[:0]
	for i := 0; i < st.nDataDep; i++ {
		kinds = append(kinds, diamondDataDep)
	}
	for i := 0; i < st.nStaticTkn; i++ {
		kinds = append(kinds, diamondStaticTaken)
	}
	for i := 0; i < st.nStatic-st.nStaticTkn; i++ {
		kinds = append(kinds, diamondStaticNot)
	}
	st.branchRng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	st.kinds = kinds

	interval := totalFiller
	if st.nDiamonds > 0 {
		interval = totalFiller / (st.nDiamonds + 1)
		if interval < 1 {
			interval = 1
		}
	}

	head := b.NewBlock()
	ctx := emitCtx{cur: head}
	blockLeft := st.sampleBlockSize()
	emitted := 0
	nextDiamond := 0

	for totalFiller > 0 {
		class := st.pickClass(totalFiller)
		st.emitFiller(class)
		st.work[class]--
		totalFiller--
		emitted++
		blockLeft--

		if nextDiamond < len(kinds) && emitted >= (nextDiamond+1)*interval {
			st.emitDiamond(&ctx, kinds[nextDiamond], &totalFiller)
			nextDiamond++
			blockLeft = st.sampleBlockSize()
			continue
		}
		if blockLeft <= 0 && totalFiller > 0 {
			// Fallthrough block boundary (basic-block vector structure).
			ctx.cur = b.NewBlock()
			blockLeft = st.sampleBlockSize()
		}
	}
	for nextDiamond < len(kinds) {
		st.emitDiamond(&ctx, kinds[nextDiamond], &totalFiller)
		nextDiamond++
	}

	// Bookkeeping tail: stir entropy, refresh the pool, restart the
	// pointer-chase walk from a fresh region (otherwise the chase settles
	// into a short cycle of the memory's functional graph and turns
	// artificially cache-warm), advance the memory bases, close the loop.
	tail := b.NewBlock()
	ctx.cur = tail
	b.Op3(isa.OpRor, regScratch, regEntropy, regShiftB)
	b.Op3(isa.OpAdd, regEntropy, regScratch, regSeq)
	b.Op3(isa.OpXor, 0, 0, regEntropy)
	b.Op3(isa.OpXor, regChase, regChase, regEntropy)
	b.AddI(regSeq, regSeq, int64(8*(st.budget[isa.ClassLoad]+1)))
	b.AddI(regStride, regStride, 320)
	b.AddI(regCounter, regCounter, -1)
	b.Branch(isa.OpBne, regCounter, regZero, head)

	exit := b.NewBlock()
	b.SetBlock(exit)
	b.Halt()
	return nil
}

// sampleBlockSize draws a basic-block size from the profile's
// distribution.
func (st *genState) sampleBlockSize() int {
	size := int(st.prof.BlockMean + float64(st.prof.BlockStd*st.bbv.NormFloat64()) + 0.5) // no fused multiply-add: see computeBudgets
	if size < 2 {
		size = 2
	}
	if upper := int(st.prof.BlockMean * 3); size > upper && upper >= 2 {
		size = upper
	}
	return size
}

// pickClass selects the class of the next filler instruction, weighted by
// remaining budget. It accumulates the integer budgets directly instead of
// materializing a float64 weight vector for rng.Pick — every partial sum
// is an integer far below 2^53, so each float64 conversion is exact and
// the target comparisons (and therefore the drawn class sequence) are
// bit-identical to Pick over the converted weights. The caller passes the
// remaining filler total it already tracks (work[] entries never go
// negative, so that running count equals the sum of the positive budgets
// the weighted draw needs). This runs once per generated filler
// instruction, so skipping both the vector build and any summation pass
// is a measurable slice of generation time.
func (st *genState) pickClass(total int) isa.Class {
	if total <= 0 {
		return fillerClasses[0]
	}
	target := st.bbv.Float64() * float64(total)
	acc := 0
	for i, c := range fillerClasses {
		w := st.work[c]
		if w <= 0 {
			continue
		}
		acc += w
		if target < float64(acc) {
			return fillerClasses[i]
		}
	}
	return fillerClasses[len(fillerClasses)-1]
}

// emitDiamond writes a balanced if-diamond: a conditional branch over two
// arms with identical class multisets, so the dynamic instruction counts
// are independent of the branch direction.
func (st *genState) emitDiamond(ctx *emitCtx, kind diamondKind, totalFiller *int) {
	b := &st.b

	// Draw the arm's class multiset from the remaining budgets.
	armLen := armSize
	if armLen > *totalFiller {
		armLen = *totalFiller
	}
	armClasses := st.armClasses[:0]
	for i := 0; i < armLen; i++ {
		c := st.pickClass(*totalFiller)
		armClasses = append(armClasses, c)
		st.work[c]--
		*totalFiller--
	}
	st.armClasses = armClasses

	armA := b.NewBlock()
	armB := b.NewBlock()
	join := b.NewBlock()

	// Condition and branch, in the block the diamond interrupts.
	b.SetBlock(ctx.cur)
	switch kind {
	case diamondDataDep:
		// Condition on the most recently written pool register: it is
		// frequently a load result, so — as in real branchy code — the
		// branch resolves late and mispredictions are expensive.
		src := st.lastIntDst
		shiftReg := uint8(regShiftA)
		if st.branchRng.Intn(2) == 0 {
			shiftReg = regShiftB
		}
		b.Op3(isa.OpRor, regScratch, src, shiftReg)
		b.Op3(isa.OpAnd, regScratch, regScratch, regMask)
		b.Op3(isa.OpCmpLT, regScratch, regScratch, regThresh)
		b.Branch(isa.OpBne, regScratch, regZero, armB)
	case diamondStaticTaken:
		b.Branch(isa.OpBeq, regZero, regZero, armB)
	case diamondStaticNot:
		b.Branch(isa.OpBne, regZero, regZero, armB)
	}

	// Both arms carry the same class multiset (different concrete
	// instructions) and both end with an explicit jump, so either path
	// retires exactly len(armClasses)+1 instructions after the branch.
	b.SetBlock(armA)
	for _, c := range armClasses {
		st.emitFiller(c)
	}
	b.Jmp(join)

	b.SetBlock(armB)
	for _, c := range armClasses {
		st.emitFiller(c)
	}
	b.Jmp(join)

	b.SetBlock(join)
	ctx.cur = join
}
