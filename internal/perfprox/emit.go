package perfprox

import (
	"math/bits"

	"hashcore/internal/isa"
	"hashcore/internal/prog"
	"hashcore/internal/rng"
)

// The emit loop. A widget is written front to back, in one pass, straight
// into its prog.Program: the code and the block table as it goes, every
// instruction valid by construction, so there is no builder and no
// per-instruction check. A filler instruction is a class draw against the
// remaining budgets, an opcode draw through an integer cut table, and one
// pass over the opcode's operands that reads its draws off a window of
// the stream (rng.Lookahead), choosing between them without branching on
// the draws. A diamond's condition is copied from a skeleton per kind.
// Every draw is the one the pipeline this replaced made, from the same
// stream in the same order (TestGenerateMatchesReference holds it to that
// pipeline, kept in reference_test.go).

// diamondKind classifies the conditional branch of a diamond.
type diamondKind uint8

// diamond is one planned diamond: its kind and, for a data-dependent one,
// the shift register its condition rotates by.
type diamond struct {
	kind  diamondKind
	shift uint8
}

const (
	diamondDataDep     diamondKind = iota // data-dependent, biased by thresh
	diamondStaticTaken                    // beq r14,r14: always taken
	diamondStaticNot                      // bne r14,r14: never taken
)

// fillerClasses lists the classes filler instructions are drawn from, in
// the order the budget-weighted class draw accumulates them.
var fillerClasses = [numFiller]isa.Class{
	isa.ClassIntALU, isa.ClassIntMul, isa.ClassFPALU,
	isa.ClassLoad, isa.ClassStore, isa.ClassVector,
}

// Indices into fillerClasses.
const (
	fIntALU = iota
	fIntMul
	fFPALU
	fLoad
	fStore
	fVector
	numFiller
)

// fillerOp is one opcode a register-class filler may take, with its
// operands as the draws see them: the register file of each of dst, a and
// b (isa.RegNone when unused) and the size of its pool (poolSize), whether
// there is a b (an unused b takes no draw) and whether it draws an
// immediate.
type fillerOp struct {
	op        isa.Opcode
	class     isa.Class
	hasB, imm uint8
	files     [3]isa.RegFile
	pools     [3]uint64
}

// weighted is an opcode and its weight in its class's opcode draw.
type weighted struct {
	op     isa.Opcode
	weight float64
}

// The opcode draws of the four register classes. The integer-multiply
// draw is Intn(4) == 0 for mulh, which is the cut 2^51 on the draw's 53
// bits: weights 1 and 3.
var (
	intALUOps = []weighted{
		{isa.OpAdd, 5}, {isa.OpSub, 3}, {isa.OpXor, 4}, {isa.OpAnd, 2},
		{isa.OpOr, 2}, {isa.OpShl, 1.5}, {isa.OpShr, 1.5}, {isa.OpRor, 1.5},
		{isa.OpCmpLT, 1}, {isa.OpCmpEQ, 1}, {isa.OpMov, 1}, {isa.OpAddI, 2},
	}
	intMulOps = []weighted{{isa.OpMulH, 1}, {isa.OpMul, 3}}
	// fcvt pulls integer values into the FP domain; ftoi pushes results
	// back, coupling the domains so neither is dead code.
	fpOps = []weighted{
		{isa.OpFAdd, 5}, {isa.OpFSub, 4}, {isa.OpFMul, 4},
		{isa.OpFDiv, 1}, {isa.OpFSqrt, 1}, {isa.OpFMov, 1},
		{isa.OpFCvt, 2}, {isa.OpFToI, 1},
	}
	vecOps = []weighted{
		{isa.OpVAdd, 3}, {isa.OpVXor, 3}, {isa.OpVMul, 3},
		{isa.OpVBcast, 2}, {isa.OpVRed, 1},
	}
)

// opTable is a register class's opcode draw, rng.PickCuts of its weights
// read through a table: the 53-bit draw's top six bits pick one of 64
// buckets, each holding how many cuts lie at or below its start and the
// one cut, if any, inside it (the opcode weights are far apart enough for
// no bucket to hold two), so a draw is one lookup and one comparison.
type opTable struct {
	rows    [16]fillerOp // the longest table, 12, rounded up to a power of two
	buckets [1 << opBucketBits]opBucket
}

const opBucketBits = 6

type opBucket struct {
	cut  uint64 // 1<<53, which no draw reaches, when the bucket holds none
	base uint64
}

// draw returns the opcode a draw of v picks.
func (t *opTable) draw(v uint64) *fillerOp {
	x := v >> 11
	b := &t.buckets[x>>(53-opBucketBits)]
	return &t.rows[(b.base+b2u(x >= b.cut))%16]
}

// opTables holds the draw of each register class, by fillerClasses index.
var opTables = func() (t [numFiller]opTable) {
	for f, ops := range map[int][]weighted{fIntALU: intALUOps, fIntMul: intMulOps, fFPALU: fpOps, fVector: vecOps} {
		w := make([]float64, len(ops))
		for i, o := range ops {
			w[i] = o.weight
			row := fillerOp{op: o.op, class: o.op.ClassOf()}
			row.files[0], row.files[1], row.files[2] = o.op.Operands()
			for k, file := range row.files {
				row.pools[k] = poolSize[file]
			}
			row.hasB = uint8(b2u(row.files[2] != isa.RegNone))
			row.imm = uint8(b2u(o.op.HasImm()))
			t[f].rows[i] = row
		}
		cuts := rng.PickCuts(nil, rng.CumWeights(nil, w))
		for k := range t[f].buckets {
			lo, hi := uint64(k)<<(53-opBucketBits), uint64(k+1)<<(53-opBucketBits)
			b := opBucket{cut: 1 << 53}
			for _, c := range cuts {
				switch {
				case c <= lo:
					b.base++
				case c < hi && b.cut != 1<<53:
					panic("perfprox: two opcode cuts share a bucket")
				case c < hi:
					b.cut = c
				}
			}
			t[f].buckets[k] = b
		}
	}
	return t
}()

func b2u(c bool) uint64 {
	if c {
		return 1
	}
	return 0
}

// sel returns x if c is 1 and y if c is 0, without a branch: the coins
// that choose between registers are unpredictable by design, and Go
// compiles such a choice to a conditional move only sometimes.
func sel(c uint64, x, y uint8) uint8 {
	return y ^ (x^y)&-uint8(c)
}

// poolSize is the size of each register file's pool: the generator draws
// integer registers from r0..r4 only (the rest have fixed roles), and
// every FP and vector register. An unused operand's "pool" of one draws
// register 0.
var poolSize = [4]uint64{isa.RegNone: 1, isa.RegInt: regPoolSize, isa.RegFP: isa.NumFPRegs, isa.RegVec: isa.NumVecRegs}

// Memory access patterns, as the load and store pattern cuts index them.
const (
	patSeq = iota
	patStride
	patRand
	patChase
)

// put appends one instruction of class c.
func (st *genState) put(op isa.Opcode, c isa.Class, dst, a, b uint8, imm int64) {
	// Field by field: a composite literal is built on the stack and
	// copied, and the copy's wide load of the narrow stores just made
	// stalls.
	in := &st.code[st.n]
	in.Imm, in.Op, in.Class, in.Dst, in.A, in.B, in.Target = imm, op, c, dst, a, b, 0
	st.n++
}

// newBlock starts a block at the next instruction.
func (st *genState) newBlock() {
	st.out.Blocks = append(st.out.Blocks, prog.Block{Start: uint32(st.n)})
}

// The register draws read the structure stream through its window
// (rng.Lookahead, st.bbv): a draw at position i is st.bbv.Buf[i]. A
// destination is uniform over its file's pool and becomes the file's
// most recent destination (st.last); a source is, with probability
// 1/DepDist, that most recent destination — a tight dependency — and
// uniform over the pool otherwise. A source reads its coin and the draw
// after it, and takes one draw or two by the coin without branching on
// it.
//
// Uniform over a pool of n is Intn(n): the high word of the draw times n.
// Lemire's method rejects a draw whose product with n is below 2^64 mod
// n; that is no draw for the power-of-two FP and vector pools, and for
// the integer pool of 5, which is odd, exactly the draw 0 (skipZeros).

// fillerDraws is the most draws one filler instruction takes (an opcode, a
// destination, two sources of two draws each and an immediate).
const fillerDraws = 8

// skipZeros returns the position of the first non-zero draw after i,
// with the window's margin restored: the integer pool's rejection, a path
// no seed is known to take.
//
//go:noinline
func (st *genState) skipZeros(i int) int {
	for {
		st.bbv.Pos = i + 1
		i = st.bbv.Window(fillerDraws)
		if st.bbv.Buf[i] != 0 {
			return i
		}
	}
}

// filler emits one filler instruction of class f (a fillerClasses index).
// A register class's is one pass over the opcode's operand files, each
// draw read off the window at a fixed or a coin-chosen offset: opcode,
// destination, a (coin, draw), b (coin, draw, when there is a b),
// immediate. A window holding a draw of 0, which the integer pool
// rejects (see pool), leaves the instruction to the draws one at a time.
func (st *genState) filler(f int) {
	switch f {
	case fLoad:
		st.emitLoad()
		return
	case fStore:
		st.emitStore()
		return
	}
	i := st.bbv.Window(fillerDraws)
	w := (*[fillerDraws]uint64)(st.bbv.Buf[i:])
	o := opTables[f].draw(w[0])
	if st.bbv.Zero < i+fillerDraws {
		st.bbv.Pos = i + 1
		st.fillerOneByOne(o)
		return
	}
	cut := st.g.depCut

	hi, _ := bits.Mul64(w[1], o.pools[0])
	d := uint8(hi)
	st.last[o.files[0]] = d

	coin := b2u(w[2]>>11 < cut)
	hi, _ = bits.Mul64(w[3], o.pools[1])
	a := sel(coin, st.last[o.files[1]], uint8(hi))
	j := 4 - coin

	hasB := uint64(o.hasB)
	coin = b2u(w[j%fillerDraws]>>11 < cut)
	hi, _ = bits.Mul64(w[(j+1)%fillerDraws], o.pools[2])
	b := sel(coin&hasB, st.last[o.files[2]], uint8(hi)) // an unused b draws register 0
	j += hasB * (2 - coin)

	imm := (int64(w[j%fillerDraws]>>52) - 2048) & -int64(o.imm)
	st.bbv.Pos = i + int(j) + int(o.imm)
	st.put(o.op, o.class, d, a, b, imm)
}

// fillerOneByOne is filler's operand draws for opcode o, one draw at a
// time: the path of a window holding a zero draw.
//
//go:noinline
func (st *genState) fillerOneByOne(o *fillerOp) {
	var b uint8
	var imm int64
	d, i := st.pool(st.bbv.Pos, o.files[0])
	a, i := st.src(i, o.files[1])
	if o.hasB != 0 {
		b, i = st.src(i, o.files[2])
	}
	st.bbv.Pos = i
	if o.imm != 0 {
		imm = int64(st.bbv.Next()>>52) - 2048
	}
	st.put(o.op, o.class, d, a, b, imm)
}

// pool draws a register of file f at position i and returns it and the
// position after the draw; src is a source draw. They are filler's
// draws, one at a time, for the loads and stores.
func (st *genState) pool(i int, f isa.RegFile) (uint8, int) {
	v := st.bbv.Buf[i]
	if v == 0 && f == isa.RegInt {
		i = st.skipZeros(i)
		v = st.bbv.Buf[i]
	}
	hi, _ := bits.Mul64(v, poolSize[f])
	st.last[f] = uint8(hi)
	return uint8(hi), i + 1
}

func (st *genState) src(i int, f isa.RegFile) (uint8, int) {
	if st.bbv.Buf[i]>>11 < st.g.depCut {
		return st.last[f], i + 1
	}
	v := st.bbv.Buf[i+1]
	if v == 0 && f == isa.RegInt {
		i = st.skipZeros(i+1) - 1
		v = st.bbv.Buf[i+1]
	}
	hi, _ := bits.Mul64(v, poolSize[f])
	return uint8(hi), i + 2
}

// memAccess draws what a load and a store share: the access pattern and
// the float coin (the memory stream's first two draws), then the base
// register and displacement the pattern gives — seq and stride walk
// their base registers' displacements; rand takes two more memory draws,
// a coin between the per-iteration entropy register and a pool register
// whose value evolves during the iteration (poolBase: a source draw of
// the structure stream), and a displacement. cuts is the pattern draw's
// (a load's last pattern is chase; a store's third cut is 2^53). It
// returns the structure stream's window position i and the draws of it
// taken so far j.
func (st *genState) memAccess(cuts *[3]uint64) (pat, fp, poolBase uint64, base uint8, disp int64, i int, j uint64) {
	g := st.g
	mi := st.mem.Window(4)
	m := (*[4]uint64)(st.mem.Buf[mi:])
	x := m[0] >> 11
	pat = b2u(x >= cuts[0]) + b2u(x >= cuts[1]) + b2u(x >= cuts[2])
	fp = b2u(m[1]>>11 < g.floadCut)
	rnd := b2u(pat == patRand)
	st.mem.Pos = mi + 2 + int(2*rnd)

	i = st.bbv.Window(fillerDraws)
	w := (*[fillerDraws]uint64)(st.bbv.Buf[i:])
	poolBase = rnd & (m[2] >> 63)
	coin := b2u(w[0]>>11 < g.depCut)
	hi, _ := bits.Mul64(w[1], regPoolSize)
	src := sel(coin, st.last[isa.RegInt], uint8(hi))
	j = poolBase * (2 - coin)

	bases := [4]uint8{regSeq, regStride, regEntropy, regChase}
	disps := [4]int64{st.seqOff, st.strideOff, int64(m[3] >> 48), 0}
	base, disp = sel(poolBase, src, bases[pat%4]), disps[pat%4]
	st.seqOff += 8 * int64(b2u(pat == patSeq))
	st.strideOff += 320 * int64(b2u(pat == patStride)) // a non-power-of-two stride that misses lines
	return pat, fp, poolBase, base, disp, i, j
}

// memOneByOne is a memory access's structure draws from position i, one
// draw at a time — the rand pattern's pool base when poolBase is set,
// then a load's destination or a store's source of file — on the path of
// a window holding a zero draw.
//
//go:noinline
func (st *genState) memOneByOne(i int, poolBase uint64, base uint8, load bool, file isa.RegFile) (uint8, uint8) {
	if poolBase != 0 {
		base, i = st.src(i, isa.RegInt)
	}
	var r uint8
	if load {
		r, i = st.pool(i, file)
	} else {
		r, i = st.src(i, file)
	}
	st.bbv.Pos = i
	return base, r
}

// memOps are a memory access's opcode, by whether it is a store and
// whether it is a float one.
var memOps = [2][2]isa.Opcode{{isa.OpLoad, isa.OpFLoad}, {isa.OpStore, isa.OpFStore}}

// emitLoad emits a load: its destination is a pool draw of the float
// coin's file — except in the chase pattern's serial chain, where the
// chase register is both address and result, and nothing more is drawn.
func (st *genState) emitLoad() {
	pat, fp, poolBase, base, disp, i, j := st.memAccess(&st.g.loadCuts)
	chase := b2u(pat == patChase)
	fp &^= chase
	file := isa.RegInt + isa.RegFile(fp) // isa.RegFP follows isa.RegInt
	hi, _ := bits.Mul64(st.bbv.Buf[i+int(j)], poolSize[file])
	d := sel(chase, regChase, uint8(hi))
	st.bbv.Pos = i + int(j+1-chase)
	switch {
	case chase != 0: // the chase updates no pool's recent register
	case st.bbv.Zero < i+fillerDraws:
		base, d = st.memOneByOne(i, poolBase, base, true, file)
	default:
		st.last[file] = d
	}
	st.put(memOps[0][fp], isa.ClassLoad, d, base, 0, disp)
}

// emitStore emits a store of a source of the float coin's file; the
// chase pattern's share of accesses folds into rand for stores.
func (st *genState) emitStore() {
	_, fp, poolBase, base, disp, i, j := st.memAccess(&st.g.storeCuts)
	file := isa.RegInt + isa.RegFile(fp) // isa.RegFP follows isa.RegInt
	coin := b2u(st.bbv.Buf[i+int(j)]>>11 < st.g.depCut)
	hi, _ := bits.Mul64(st.bbv.Buf[i+int(j+1)], poolSize[file])
	b := sel(coin, st.last[file], uint8(hi))
	st.bbv.Pos = i + int(j+2-coin)
	if st.bbv.Zero < i+fillerDraws {
		base, b = st.memOneByOne(i, poolBase, base, false, file)
	}
	st.put(memOps[1][fp], isa.ClassStore, 0, base, b, disp)
}

// pickClass draws the class of the next filler instruction, weighted by
// the remaining budgets: the first class whose cumulative budget exceeds
// the target. The budgets are integers, so comparing their sums with the
// target's floor is comparing them with the target. A target that rounds
// up to the total reaches no cumulative budget and gets the last class,
// as a weighted draw's fallback does. The class drawn is taken out of the
// budgets, unless it had none left (only that fallback can draw such a
// class).
func (st *genState) pickClass() int {
	t := int(st.bbv.Float64() * float64(st.total))
	w := &st.work
	c1 := w[0]
	c2 := c1 + w[1]
	c3 := c2 + w[2]
	c4 := c3 + w[3]
	c5 := c4 + w[4]
	f := b2u(t >= c1) + b2u(t >= c2) + b2u(t >= c3) + b2u(t >= c4) + b2u(t >= c5)
	w[f] -= int(b2u(w[f] > 0))
	st.total--
	return int(f)
}

// emitEntry writes the initialization block: register pools, role
// registers, residual instructions (class budget remainders that do not
// divide evenly by the trip count), then falls through to the body.
func (st *genState) emitEntry() {
	st.newBlock()
	movi := func(dst uint8, imm int64) { st.put(isa.OpMovI, isa.ClassIntALU, dst, 0, 0, imm) }
	movi(regCounter, int64(st.params.LoopTrips))
	movi(regZero, 0)
	movi(regMask, 255)
	movi(regThresh, st.thresh)
	movi(regShiftA, int64(1+st.branchRng.Intn(62)))
	movi(regShiftB, int64(1+st.branchRng.Intn(62)))
	movi(regScratch, 0)

	wsMask := uint64(st.prof.WorkingSet - 1)
	movi(regSeq, int64(st.mem.Next()&wsMask))
	movi(regStride, int64(st.mem.Next()&wsMask))
	movi(regEntropy, int64(st.mem.Next()))
	movi(regChase, int64(st.mem.Next()&wsMask))

	// General pools: deterministic pseudo-random initial values.
	for i := 0; i < regPoolSize; i++ {
		movi(uint8(i), int64(st.bbv.Next()))
	}
	for i := 0; i < isa.NumFPRegs; i++ {
		st.put(isa.OpFCvt, isa.ClassFPALU, uint8(i), uint8(i%regPoolSize), 0, 0)
	}
	for i := 0; i < isa.NumVecRegs; i++ {
		st.put(isa.OpVBcast, isa.ClassVector, uint8(i), uint8(i%regPoolSize), 0, 0)
	}

	// Residual instructions (executed once, not per iteration). Branch
	// residuals are dropped: a sub-0.2% undercount, documented in
	// DESIGN.md.
	for f, class := range fillerClasses {
		for i := 0; i < st.residual[class]; i++ {
			st.filler(f)
		}
	}
}

// emitBody writes the loop body: filler instructions grouped into basic
// blocks, diamonds spread evenly through the stream, then the bookkeeping
// tail and the exit block.
func (st *genState) emitBody() {
	// The per-iteration filler budgets, in fillerClasses order.
	st.total = 0
	for f, class := range fillerClasses {
		st.work[f] = st.budget[class]
		st.total += st.budget[class]
	}

	// Pre-plan diamond kinds, shuffled so kinds interleave through the
	// body rather than clustering, then each data-dependent one's shift
	// register (Intn(2) == 0 picks regShiftB): the branch stream's draws
	// in the order the diamonds are emitted.
	kinds := st.diamonds[:0]
	for i := 0; i < st.nDataDep; i++ {
		kinds = append(kinds, diamond{kind: diamondDataDep})
	}
	for i := 0; i < st.nStaticTkn; i++ {
		kinds = append(kinds, diamond{kind: diamondStaticTaken})
	}
	for i := 0; i < st.nStatic-st.nStaticTkn; i++ {
		kinds = append(kinds, diamond{kind: diamondStaticNot})
	}
	st.branchRng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	for i := range kinds {
		if kinds[i].kind == diamondDataDep {
			kinds[i].shift = regShiftA
			if st.branchRng.Intn(2) == 0 {
				kinds[i].shift = regShiftB
			}
		}
	}
	st.diamonds = kinds

	interval := st.total
	if st.nDiamonds > 0 {
		interval = max(st.total/(st.nDiamonds+1), 1)
	}

	head := uint32(len(st.out.Blocks))
	st.newBlock()
	blockLeft := st.sampleBlockSize()
	emitted := 0
	nextDiamond := 0
	nextAt := interval

	for st.total > 0 {
		st.filler(st.pickClass())
		emitted++
		blockLeft--

		if nextDiamond < len(kinds) && emitted >= nextAt {
			st.emitDiamond(kinds[nextDiamond])
			nextDiamond++
			nextAt += interval
			blockLeft = st.sampleBlockSize()
			continue
		}
		if blockLeft <= 0 && st.total > 0 {
			// Fallthrough block boundary (basic-block vector structure).
			st.newBlock()
			blockLeft = st.sampleBlockSize()
		}
	}
	for ; nextDiamond < len(kinds); nextDiamond++ {
		st.emitDiamond(kinds[nextDiamond])
	}

	// Bookkeeping tail: stir entropy, refresh the pool, restart the
	// pointer-chase walk from a fresh region (otherwise the chase settles
	// into a short cycle of the memory's functional graph and turns
	// artificially cache-warm), advance the memory bases, close the loop.
	st.newBlock()
	alu := isa.ClassIntALU
	st.put(isa.OpRor, alu, regScratch, regEntropy, regShiftB, 0)
	st.put(isa.OpAdd, alu, regEntropy, regScratch, regSeq, 0)
	st.put(isa.OpXor, alu, 0, 0, regEntropy, 0)
	st.put(isa.OpXor, alu, regChase, regChase, regEntropy, 0)
	st.put(isa.OpAddI, alu, regSeq, regSeq, 0, int64(8*(st.budget[isa.ClassLoad]+1)))
	st.put(isa.OpAddI, alu, regStride, regStride, 0, 320)
	st.put(isa.OpAddI, alu, regCounter, regCounter, 0, -1)
	st.put(isa.OpBne, isa.ClassBranch, 0, regCounter, regZero, 0)
	st.code[st.n-1].Target = head

	st.newBlock()
	st.put(isa.OpHalt, isa.ClassBranch, 0, 0, 0, 0)
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

// diamondConds are the diamonds' conditions by kind: the instructions that
// end the block a diamond interrupts, the last of which branches to the
// second arm. A data-dependent condition ror's the most recently written
// pool register by a shift register, both drawn per diamond: filled in
// over the first instruction's a and b, which a static condition's branch
// holds as r14, r14.
var diamondConds = func() (c [3]struct {
	code [4]prog.Instr
	n    int
}) {
	mk := func(op isa.Opcode, dst, a, b uint8) prog.Instr {
		return prog.Instr{Op: op, Class: op.ClassOf(), Dst: dst, A: a, B: b}
	}
	c[diamondDataDep].code = [4]prog.Instr{
		mk(isa.OpRor, regScratch, 0, 0),
		mk(isa.OpAnd, regScratch, regScratch, regMask),
		mk(isa.OpCmpLT, regScratch, regScratch, regThresh),
		mk(isa.OpBne, 0, regScratch, regZero),
	}
	c[diamondDataDep].n = 4
	c[diamondStaticTaken].code[0] = mk(isa.OpBeq, 0, regZero, regZero)
	c[diamondStaticNot].code[0] = mk(isa.OpBne, 0, regZero, regZero)
	c[diamondStaticTaken].n, c[diamondStaticNot].n = 1, 1
	return c
}()

// emitDiamond writes a balanced if-diamond: a conditional branch over two
// arms with identical class multisets, so the dynamic instruction counts
// are independent of the branch direction. The condition ends the current
// block, copied from its kind's diamondConds with the registers filled
// in; the arms and the join are the next three blocks.
func (st *genState) emitDiamond(d diamond) {
	// Draw the arm's class multiset from the remaining budgets.
	var arm [armSize]int
	armLen := min(armSize, st.total)
	for i := 0; i < armLen; i++ {
		arm[i] = st.pickClass()
	}

	// A data-dependent condition is on the most recently written pool
	// register: it is frequently a load result, so — as in real branchy
	// code — the branch resolves late and mispredictions are expensive.
	cond := &diamondConds[d.kind]
	c := (*[4]prog.Instr)(st.code[st.n:])
	*c = cond.code
	dd := b2u(d.kind == diamondDataDep)
	c[0].A, c[0].B = sel(dd, st.last[isa.RegInt], regZero), sel(dd, d.shift, regZero)
	c[cond.n-1].Target = uint32(len(st.out.Blocks) + 1) // the second arm
	st.n += cond.n

	// Both arms carry the same class multiset (different concrete
	// instructions) and both end with an explicit jump, so either path
	// retires exactly armLen+1 instructions after the branch.
	join := uint32(len(st.out.Blocks) + 2)
	for range 2 {
		st.newBlock()
		for _, f := range arm[:armLen] {
			st.filler(f)
		}
		st.code[st.n] = prog.Instr{Op: isa.OpJmp, Class: isa.ClassBranch, Target: join}
		st.n++
	}
	st.newBlock()
}
