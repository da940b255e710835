package perfprox

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"hashcore/internal/isa"
	"hashcore/internal/profile"
	"hashcore/internal/prog"
	"hashcore/internal/rng"
	"hashcore/internal/workload"
	"hashcore/internal/workload/refprog"
)

// The reference generator, a test-only oracle in the way vm keeps its
// dense executor: the straightforward pipeline the flat emit loop
// (emit.go) must reproduce — planning, emitBody, emitDiamond, the
// emitFiller call tree, one rng method call per draw — with its
// package-level names prefixed "ref", writing through one refprog.Builder
// per program, whose Build runs prog.Validate. TestGenerateMatchesReference and FuzzGenerateVsReference
// hold the generator to it instruction for instruction.

// referenceGenerate is GenerateInto on the reference pipeline, with a
// fresh state.
func referenceGenerate(prof *profile.Profile, params Params, seed Seed) (*prog.Program, error) {
	var st refGenState
	st.reset(prof, params.withDefaults(), Split(seed))
	p, err := st.run()
	if err != nil {
		return nil, fmt.Errorf("perfprox: generating widget: %w", err)
	}
	return p, nil
}

// refGenState carries all mutable state for one widget generation. It is
// fully re-initialized by reset, so the same value can drive any number of
// generations; the PRNGs, budgets and recency rings are fixed-size values
// (per-class state is indexed arrays, which keeps the emission loop free
// of map-hashing overhead).
type refGenState struct {
	prof   *profile.Profile
	params Params
	fields Fields

	bbv       rng.Xoshiro256 // code structure decisions
	mem       rng.Xoshiro256 // memory pattern decisions
	branchRng rng.Xoshiro256 // branch behaviour decisions

	b *refprog.Builder

	// Per-iteration static budgets by class (branch handled separately),
	// the one-time residuals, and the emitBody working copy.
	budget   [isa.NumClasses]int
	residual [isa.NumClasses]int
	work     [isa.NumClasses]int

	nDiamonds  int // diamonds per iteration
	nDataDep   int // of which data-dependent
	nStaticTkn int // statically always-taken diamonds
	nStatic    int // statically never/always-taken diamonds total

	thresh int64 // data-dep comparison threshold (0..255)

	// Rotating static displacement counters so accesses spread out.
	seqOff, strideOff int

	// Dependency-distance machinery: the most recent destination of each
	// pool (the only recency depth pickSrc's 1/DepDist draw ever reads),
	// plus that probability precomputed once per generation so the source
	// pickers avoid a float divide per drawn operand.
	lastIntDst uint8
	lastFPDst  uint8
	lastVecDst uint8
	invDepDist float64

	floadProb  float64 // probability a load is an fload
	fstoreProb float64 // probability a store is an fstore

	// Cumulative access-pattern weights (see rng.PickCum), hoisted out of
	// the per-instruction emit paths by planMemory: the weights are fixed
	// per profile, and rebuilding + summing the vectors per emitted load
	// and store was a measurable share of generation time.
	loadPatCum  [4]float64
	storePatCum [3]float64

	// Reusable emission scratch (capacity retained across generations).
	kinds      []refDiamondKind
	armClasses []isa.Class
}

// reset re-initializes every generation-scoped field; the scratch slices
// (kinds, armClasses) keep their capacity.
func (st *refGenState) reset(prof *profile.Profile, params Params, fields Fields) {
	st.prof = prof
	st.params = params
	st.fields = fields
	st.bbv.Seed(uint64(fields.BBV))
	st.mem.Seed(uint64(fields.Mem))
	st.branchRng.Seed(uint64(fields.Branch))
	st.budget = [isa.NumClasses]int{}
	st.residual = [isa.NumClasses]int{}
	st.work = [isa.NumClasses]int{}
	st.nDiamonds, st.nDataDep, st.nStaticTkn, st.nStatic = 0, 0, 0, 0
	st.thresh = 0
	st.seqOff, st.strideOff = 0, 0
	st.lastIntDst, st.lastFPDst, st.lastVecDst = 0, 0, 0
	st.invDepDist = 0
	if prof.DepDist > 0 {
		st.invDepDist = 1 / prof.DepDist
	}
	st.floadProb, st.fstoreProb = 0, 0
}

// run executes the generation pipeline.
func (st *refGenState) run() (*prog.Program, error) {
	st.computeBudgets()
	if err := st.planBranches(); err != nil {
		return nil, err
	}
	st.planMemory()

	st.b = refprog.NewBuilder(st.prof.WorkingSet, st.memSeed())
	st.b.NewBlock() // entry; falls through to the loop head
	st.emitEntry()
	if err := st.emitBody(); err != nil {
		return nil, err
	}
	return st.b.Build()
}

// memSeed expands the 32-bit memory field into the 64-bit scratch-memory
// content seed.
func (st *refGenState) memSeed() uint64 {
	return expandMemSeed(st.fields.Mem)
}

// computeBudgets turns the profile mix plus seed noise into per-iteration
// integer budgets. Noise is positive-only and applies to the five Table I
// count classes; branch and vector counts stay at their base values.
func (st *refGenState) computeBudgets() {
	T := float64(st.prof.TargetDynamic)
	L := st.params.LoopTrips
	// Every product that feeds an add is rounded on its own by an explicit
	// conversion, here and below: Go may otherwise fuse the two into one
	// multiply-add, which rounds once, on the architectures that have one
	// (not amd64), and a one-ulp difference can move an int(...) below.
	noise := func(field uint32) float64 { return 1 + float64(0.5*Unit(field)) }
	set := func(class isa.Class, d float64) {
		per := int(d) / L
		st.budget[class] = per
		st.residual[class] = int(d) - per*L
	}

	set(isa.ClassIntALU, T*st.prof.Mix[isa.ClassIntALU]*noise(st.fields.IntALU))
	set(isa.ClassIntMul, T*st.prof.Mix[isa.ClassIntMul]*noise(st.fields.IntMul))
	set(isa.ClassFPALU, T*st.prof.Mix[isa.ClassFPALU]*noise(st.fields.FPALU))
	set(isa.ClassLoad, T*st.prof.Mix[isa.ClassLoad]*noise(st.fields.Loads))
	set(isa.ClassStore, T*st.prof.Mix[isa.ClassStore]*noise(st.fields.Stores))
	set(isa.ClassBranch, T*st.prof.Mix[isa.ClassBranch])
	set(isa.ClassVector, T*st.prof.Mix[isa.ClassVector])
}

// planBranches allocates the per-iteration branch-class budget to the
// outer-loop branch, diamonds (one conditional + one jump each) and
// computes the static taken/not-taken split that matches the profile's
// taken rate.
func (st *refGenState) planBranches() error {
	nBranch := st.budget[isa.ClassBranch]
	if nBranch < 1 {
		nBranch = 1 // the loop branch always exists
	}
	st.nDiamonds = (nBranch - 1) / 2
	condBranches := st.nDiamonds + 1 // diamonds + loop branch

	st.nDataDep = int(float64(float64(st.nDiamonds)*st.prof.BranchDataDep) + 0.5)
	if st.nDataDep > st.nDiamonds {
		st.nDataDep = st.nDiamonds
	}
	st.nStatic = st.nDiamonds - st.nDataDep

	// Perturb the data-dependent bias with the Table I branch field.
	biasNoise := float64((Unit(st.fields.Branch) - 0.5) * 0.125)
	bias := st.prof.BranchBias + biasNoise
	if bias < 0.02 {
		bias = 0.02
	}
	if bias > 0.98 {
		bias = 0.98
	}
	st.thresh = int64(float64(bias*256) + 0.5)
	if st.thresh < 1 {
		st.thresh = 1
	}
	if st.thresh > 255 {
		st.thresh = 255
	}

	// Choose how many static diamonds are always-taken so the overall
	// conditional-branch taken rate approximates the profile's.
	wantTaken := float64(st.prof.BranchTaken * float64(condBranches))
	expected := 1.0 + float64(float64(st.nDataDep)*bias) // loop branch + data-dep expectation
	k := int(wantTaken - expected + 0.5)
	if k < 0 {
		k = 0
	}
	if k > st.nStatic {
		k = st.nStatic
	}
	st.nStaticTkn = k

	// Deduct fixed ALU overheads: 3 condition instructions per data-dep
	// diamond + 7 per-iteration bookkeeping instructions (entropy stir,
	// pool injection, chase restart, pointer advances, loop counter).
	overhead := 3*st.nDataDep + 7
	st.budget[isa.ClassIntALU] -= overhead
	if st.budget[isa.ClassIntALU] < 0 {
		return fmt.Errorf("%w: intalu budget %d < overhead %d",
			errBudget, st.budget[isa.ClassIntALU]+overhead, overhead)
	}
	return nil
}

// planMemory derives per-access-pattern probabilities. Each emitted load
// chooses its pattern from the memory PRNG with the profile's fractions
// (stores fold the chase share into random, since a "store chase" is not a
// meaningful pattern).
func (st *refGenState) planMemory() {
	// FP flavouring of memory ops tracks the FP intensity of the profile.
	fpIntensity := st.prof.Mix[isa.ClassFPALU]
	st.floadProb = fpIntensity * 2
	if st.floadProb > 0.6 {
		st.floadProb = 0.6
	}
	st.fstoreProb = st.floadProb

	// Materialize the cumulative pattern-weight tables the emit paths
	// sample per access (accumulated exactly as rng.Pick would, so the
	// drawn patterns are bit-identical to the former per-call vectors).
	loadW := [4]float64{
		st.prof.MemSequential, st.prof.MemStrided, st.prof.MemRandom, st.prof.MemPointerChase,
	}
	storeW := [3]float64{
		st.prof.MemSequential, st.prof.MemStrided,
		st.prof.MemRandom + st.prof.MemPointerChase, // chase folds into random
	}
	rng.CumWeights(st.loadPatCum[:0], loadW[:])
	rng.CumWeights(st.storePatCum[:0], storeW[:])
}

// refDiamondKind classifies the conditional branch of a diamond.
type refDiamondKind uint8

const (
	refDiamondDataDep     refDiamondKind = iota // data-dependent, biased by thresh
	refDiamondStaticTaken                       // beq r14,r14: always taken
	refDiamondStaticNot                         // bne r14,r14: never taken
)

// refFillerClasses lists the classes emitBody draws filler instructions
// from, in the fixed order the budget-weighted picker uses.
var refFillerClasses = [...]isa.Class{
	isa.ClassIntALU, isa.ClassIntMul, isa.ClassFPALU,
	isa.ClassLoad, isa.ClassStore, isa.ClassVector,
}

// cur tracks the block currently being emitted into; refGenState.emit* keep it
// up to date.
type refEmitCtx struct {
	cur refprog.Label
}

// emitEntry writes the initialization block: register pools, role
// registers, residual instructions (class budget remainders that do not
// divide evenly by the trip count), then falls through to the body.
func (st *refGenState) emitEntry() {
	b := st.b
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
	for _, class := range refFillerClasses {
		for i := 0; i < st.residual[class]; i++ {
			st.emitFiller(class)
		}
	}
}

// emitBody writes the loop body: filler instructions grouped into basic
// blocks, diamonds spread evenly through the stream, then the bookkeeping
// tail and the exit block.
func (st *refGenState) emitBody() error {
	b := st.b

	// Working copies of the per-iteration budgets for filler classes.
	st.work = [isa.NumClasses]int{}
	totalFiller := 0
	for _, class := range refFillerClasses {
		st.work[class] = st.budget[class]
		totalFiller += st.budget[class]
	}

	// Pre-plan diamond kinds, shuffled so kinds interleave through the
	// body rather than clustering.
	kinds := st.kinds[:0]
	for i := 0; i < st.nDataDep; i++ {
		kinds = append(kinds, refDiamondDataDep)
	}
	for i := 0; i < st.nStaticTkn; i++ {
		kinds = append(kinds, refDiamondStaticTaken)
	}
	for i := 0; i < st.nStatic-st.nStaticTkn; i++ {
		kinds = append(kinds, refDiamondStaticNot)
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
	ctx := refEmitCtx{cur: head}
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
func (st *refGenState) sampleBlockSize() int {
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
func (st *refGenState) pickClass(total int) isa.Class {
	if total <= 0 {
		return refFillerClasses[0]
	}
	target := st.bbv.Float64() * float64(total)
	acc := 0
	for i, c := range refFillerClasses {
		w := st.work[c]
		if w <= 0 {
			continue
		}
		acc += w
		if target < float64(acc) {
			return refFillerClasses[i]
		}
	}
	return refFillerClasses[len(refFillerClasses)-1]
}

// emitDiamond writes a balanced if-diamond: a conditional branch over two
// arms with identical class multisets, so the dynamic instruction counts
// are independent of the branch direction.
func (st *refGenState) emitDiamond(ctx *refEmitCtx, kind refDiamondKind, totalFiller *int) {
	b := st.b

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
	case refDiamondDataDep:
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
	case refDiamondStaticTaken:
		b.Branch(isa.OpBeq, regZero, regZero, armB)
	case refDiamondStaticNot:
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

// refIntALUOps are the opcodes (with weights) used for integer-ALU fillers.
var refIntALUOps = []struct {
	op     isa.Opcode
	weight float64
}{
	{isa.OpAdd, 5}, {isa.OpSub, 3}, {isa.OpXor, 4}, {isa.OpAnd, 2},
	{isa.OpOr, 2}, {isa.OpShl, 1.5}, {isa.OpShr, 1.5}, {isa.OpRor, 1.5},
	{isa.OpCmpLT, 1}, {isa.OpCmpEQ, 1}, {isa.OpMov, 1}, {isa.OpAddI, 2},
}

// refFpOps are the opcodes used for FP fillers. fcvt pulls integer values
// into the FP domain; ftoi pushes results back, coupling the domains so
// neither is dead code.
var refFpOps = []struct {
	op     isa.Opcode
	weight float64
}{
	{isa.OpFAdd, 5}, {isa.OpFSub, 4}, {isa.OpFMul, 4},
	{isa.OpFDiv, 1}, {isa.OpFSqrt, 1}, {isa.OpFMov, 1},
	{isa.OpFCvt, 2}, {isa.OpFToI, 1},
}

// refVecOps are the opcodes used for vector fillers.
var refVecOps = []struct {
	op     isa.Opcode
	weight float64
}{
	{isa.OpVAdd, 3}, {isa.OpVXor, 3}, {isa.OpVMul, 3},
	{isa.OpVBcast, 2}, {isa.OpVRed, 1},
}

// The weight vectors are invariant, so their cumulative forms are
// materialized once and sampled with rng.PickCum — the per-filler weight
// summation Pick performs used to be a measurable share of generation
// time, and PickCum draws the bit-identical index without it.
var (
	refIntALUCum = refOpCumWeights(refIntALUOps)
	refFpCum     = refOpCumWeights(refFpOps)
	refVecCum    = refOpCumWeights(refVecOps)
)

func refOpCumWeights(ops []struct {
	op     isa.Opcode
	weight float64
}) []float64 {
	w := make([]float64, len(ops))
	for i := range ops {
		w[i] = ops[i].weight
	}
	return rng.CumWeights(nil, w)
}

// emitFiller emits one instruction of the requested class into the current
// block, choosing opcode, registers and memory pattern from the
// generation PRNGs.
func (st *refGenState) emitFiller(class isa.Class) {
	switch class {
	case isa.ClassIntALU:
		st.emitIntALU()
	case isa.ClassIntMul:
		st.emitIntMul()
	case isa.ClassFPALU:
		st.emitFP()
	case isa.ClassLoad:
		st.emitLoad()
	case isa.ClassStore:
		st.emitStore()
	case isa.ClassVector:
		st.emitVector()
	}
}

func (st *refGenState) emitIntALU() {
	op := refIntALUOps[st.bbv.PickCum(refIntALUCum)].op
	dst := st.pickIntDst()
	switch op {
	case isa.OpMov:
		st.b.Op2(op, dst, st.pickIntSrc())
	case isa.OpAddI:
		st.b.AddI(dst, st.pickIntSrc(), int64(st.bbv.Intn(4096))-2048)
	default:
		st.b.Op3(op, dst, st.pickIntSrc(), st.pickIntSrc())
	}
}

func (st *refGenState) emitIntMul() {
	op := isa.OpMul
	if st.bbv.Intn(4) == 0 {
		op = isa.OpMulH
	}
	st.b.Op3(op, st.pickIntDst(), st.pickIntSrc(), st.pickIntSrc())
}

func (st *refGenState) emitFP() {
	op := refFpOps[st.bbv.PickCum(refFpCum)].op
	switch op {
	case isa.OpFCvt:
		st.b.Op2(op, st.pickFPDst(), st.pickIntSrc())
	case isa.OpFToI:
		st.b.Op2(op, st.pickIntDst(), st.pickFPSrc())
	case isa.OpFSqrt, isa.OpFMov:
		st.b.Op2(op, st.pickFPDst(), st.pickFPSrc())
	default:
		st.b.Op3(op, st.pickFPDst(), st.pickFPSrc(), st.pickFPSrc())
	}
}

// memPattern indexes the access-pattern weights for Pick.
const (
	refPatSeq = iota
	refPatStride
	refPatRand
	refPatChase
)

func (st *refGenState) emitLoad() {
	// The pattern weights are fixed per profile; planMemory materialized
	// their cumulative form once for the whole generation.
	pattern := st.mem.PickCum(st.loadPatCum[:])
	fp := st.mem.Float64() < st.floadProb

	var base uint8
	var disp int64
	switch pattern {
	case refPatSeq:
		base = regSeq
		disp = int64(st.seqOff)
		st.seqOff += 8
	case refPatStride:
		base = regStride
		disp = int64(st.strideOff)
		st.strideOff += 320 // a non-power-of-two stride that misses lines
	case refPatRand:
		// Alternate between the per-iteration entropy register and a
		// pool register whose value evolves during the iteration.
		if st.mem.Intn(2) == 0 {
			base = regEntropy
		} else {
			base = st.pickIntSrc()
		}
		disp = int64(st.mem.Intn(1 << 16))
	case refPatChase:
		// Serial chain: the chase register is both address and result.
		st.b.Load(regChase, regChase, 0)
		return
	}
	if fp {
		st.b.FLoad(st.pickFPDst(), base, disp)
	} else {
		st.b.Load(st.pickIntDst(), base, disp)
	}
}

func (st *refGenState) emitStore() {
	pattern := st.mem.PickCum(st.storePatCum[:])
	fp := st.mem.Float64() < st.fstoreProb

	var base uint8
	var disp int64
	switch pattern {
	case refPatSeq:
		base = regSeq
		disp = int64(st.seqOff)
		st.seqOff += 8
	case refPatStride:
		base = regStride
		disp = int64(st.strideOff)
		st.strideOff += 320
	default:
		if st.mem.Intn(2) == 0 {
			base = regEntropy
		} else {
			base = st.pickIntSrc()
		}
		disp = int64(st.mem.Intn(1 << 16))
	}
	if fp {
		st.b.FStore(base, st.pickFPSrc(), disp)
	} else {
		st.b.Store(base, st.pickIntSrc(), disp)
	}
}

func (st *refGenState) emitVector() {
	op := refVecOps[st.bbv.PickCum(refVecCum)].op
	switch op {
	case isa.OpVBcast:
		st.b.Op2(op, st.pickVecDst(), st.pickIntSrc())
	case isa.OpVRed:
		st.b.Op2(op, st.pickIntDst(), st.pickVecSrc())
	default:
		st.b.Op3(op, st.pickVecDst(), st.pickVecSrc(), st.pickVecSrc())
	}
}

// pickIntDst chooses a destination from the general integer pool and
// records it as most-recently-written.
func (st *refGenState) pickIntDst() uint8 {
	dst := uint8(st.bbv.Intn(regPoolSize))
	st.lastIntDst = dst
	return dst
}

// pickIntSrc chooses a source register, biased toward recent destinations
// so the mean dependency distance approximates the profile's DepDist.
func (st *refGenState) pickIntSrc() uint8 {
	return st.pickSrc(st.lastIntDst, regPoolSize)
}

func (st *refGenState) pickFPDst() uint8 {
	dst := uint8(st.bbv.Intn(isa.NumFPRegs))
	st.lastFPDst = dst
	return dst
}

func (st *refGenState) pickFPSrc() uint8 {
	return st.pickSrc(st.lastFPDst, isa.NumFPRegs)
}

func (st *refGenState) pickVecDst() uint8 {
	dst := uint8(st.bbv.Intn(isa.NumVecRegs))
	st.lastVecDst = dst
	return dst
}

func (st *refGenState) pickVecSrc() uint8 {
	return st.pickSrc(st.lastVecDst, isa.NumVecRegs)
}

// pickSrc selects a source register: with probability 1/DepDist the most
// recent destination (a tight dependency), otherwise uniform over the
// pool. The probability is precomputed by reset (invDepDist is positive
// exactly when DepDist is), so the per-operand cost is one draw and one
// compare — this runs two-plus times per emitted filler instruction.
func (st *refGenState) pickSrc(last uint8, poolSize int) uint8 {
	if st.invDepDist > 0 && st.bbv.Float64() < st.invDepDist {
		return last
	}
	return uint8(st.bbv.Intn(poolSize))
}

// sameProgram reports how got differs from want: code, block table or
// memory declaration, "" when it does not.
func sameProgram(got, want *prog.Program) string {
	switch {
	case got.MemSize != want.MemSize || got.MemSeed != want.MemSeed:
		return fmt.Sprintf("memory %d/%#x, want %d/%#x", got.MemSize, got.MemSeed, want.MemSize, want.MemSeed)
	case !slices.Equal(got.Blocks, want.Blocks):
		return fmt.Sprintf("block table differs (%d blocks, want %d)", len(got.Blocks), len(want.Blocks))
	case !slices.Equal(got.Code, want.Code):
		i := 0
		for i < len(got.Code) && i < len(want.Code) && got.Code[i] == want.Code[i] {
			i++
		}
		return fmt.Sprintf("code differs at instruction %d of %d (want %d)", i, len(got.Code), len(want.Code))
	}
	return ""
}

// checkAgainstReference generates seed with g into sc and with the
// reference pipeline, and fails t unless both fail or both build the same
// program.
func checkAgainstReference(t *testing.T, g *Generator, sc *Scratch, seed Seed) {
	t.Helper()
	got, err := g.GenerateInto(seed, sc)
	want, wantErr := referenceGenerate(g.prof, g.params, seed)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("seed %x: error %v, reference %v", seed, err, wantErr)
	}
	if err != nil {
		return
	}
	if d := sameProgram(got, want); d != "" {
		t.Fatalf("seed %x: %s", seed, d)
	}
}

// TestGenerateMatchesReference holds the generator to the reference
// pipeline on every profile: 2,000 seeds at the default parameters, and
// fewer at non-default trip counts.
func TestGenerateMatchesReference(t *testing.T) {
	seeds := 2000
	if testing.Short() {
		seeds = 200
	}
	for _, w := range workload.All() {
		t.Run(w.Name, func(t *testing.T) {
			for _, params := range []struct {
				p Params
				n int
			}{
				{Params{}, seeds},
				{Params{LoopTrips: 32}, seeds / 20},
				{Params{LoopTrips: 16}, seeds / 20},
				{Params{LoopTrips: 256}, seeds / 20},
			} {
				g, err := NewGenerator(w.Profile, params.p)
				if err != nil {
					t.Fatal(err)
				}
				var sc Scratch
				for s := 0; s < params.n; s++ {
					checkAgainstReference(t, g, &sc, seedFromUint64(uint64(s)*0x9e3779b97f4a7c15+uint64(len(w.Name))))
				}
			}
		})
	}
}

// FuzzGenerateVsReference fuzzes the seed, the profile and the trip count.
func FuzzGenerateVsReference(f *testing.F) {
	f.Add(make([]byte, SeedSize), uint8(0), uint16(0))
	f.Add(bytes.Repeat([]byte{0xff}, SeedSize), uint8(3), uint16(2))
	f.Add([]byte("a seed of thirty-two bytes, ok!!"), uint8(5), uint16(200))
	all := workload.All()
	f.Fuzz(func(t *testing.T, seedBytes []byte, profile uint8, trips uint16) {
		var seed Seed
		copy(seed[:], seedBytes)
		g, err := NewGenerator(all[int(profile)%len(all)].Profile, Params{LoopTrips: int(trips)})
		if err != nil {
			return // trip count out of range
		}
		var sc Scratch
		checkAgainstReference(t, g, &sc, seed)
	})
}
