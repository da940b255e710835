package perfprox

import (
	"errors"
	"fmt"

	"hashcore/internal/asm"
	"hashcore/internal/isa"
	"hashcore/internal/profile"
	"hashcore/internal/prog"
	"hashcore/internal/rng"
)

// Params tunes the generator. The zero value selects defaults.
type Params struct {
	// Noise is the maximum fractional positive noise added to each
	// noise-carrying instruction class (0.5 means a class budget can grow
	// by up to 50%). Default 0.5.
	Noise float64
	// LoopTrips is the outer-loop trip count; the per-iteration static
	// code size is TargetDynamic/LoopTrips. Default 64.
	LoopTrips int
	// ArmSize is the number of instructions in each branch-diamond arm.
	// Default 3.
	ArmSize int
}

func (p Params) withDefaults() Params {
	if p.Noise == 0 {
		p.Noise = 0.5
	}
	if p.LoopTrips == 0 {
		p.LoopTrips = 64
	}
	if p.ArmSize == 0 {
		p.ArmSize = 3
	}
	return p
}

// Generator produces widgets for one target profile. It is immutable after
// construction and safe for concurrent use (each Generate call carries its
// own state).
type Generator struct {
	prof   *profile.Profile
	params Params
}

// NewGenerator validates the profile and returns a widget generator.
func NewGenerator(prof *profile.Profile, params Params) (*Generator, error) {
	if err := prof.Validate(); err != nil {
		return nil, fmt.Errorf("perfprox: %w", err)
	}
	p := params.withDefaults()
	if p.Noise < 0 || p.Noise > 4 {
		return nil, fmt.Errorf("perfprox: noise amplitude %v out of range [0,4]", p.Noise)
	}
	if p.LoopTrips < 2 || p.LoopTrips > 1<<16 {
		return nil, fmt.Errorf("perfprox: loop trips %d out of range", p.LoopTrips)
	}
	if p.ArmSize < 1 || p.ArmSize > 64 {
		return nil, fmt.Errorf("perfprox: arm size %d out of range", p.ArmSize)
	}
	return &Generator{prof: prof.Clone(), params: p}, nil
}

// Profile returns (a copy of) the target profile.
func (g *Generator) Profile() *profile.Profile { return g.prof.Clone() }

// Scratch holds every piece of mutable state one widget generation needs:
// the PRNGs, class budgets, program builder and the output program. The
// zero value is ready to use. Reusing a Scratch across GenerateInto calls
// reaches a steady state where generation performs no heap allocation;
// the price is that each generated program is only valid until the next
// GenerateInto on the same Scratch. A Scratch is not safe for concurrent
// use — give each goroutine its own (core.Session does exactly that).
type Scratch struct {
	st genState
}

// Generate builds the widget program for the given hash seed: GenerateInto
// on a private scratch, so the returned program owns its storage and is
// never invalidated.
func (g *Generator) Generate(seed Seed) (*prog.Program, error) {
	return g.GenerateInto(seed, new(Scratch))
}

// GenerateInto builds the widget program for the given hash seed using
// (and mutating) sc's storage. The returned program aliases sc and is
// invalidated by the next GenerateInto call on the same Scratch; callers
// needing longer-lived programs should use Generate, which returns the
// same program for every seed (TestGeneratedProgramsAreWhole).
func (g *Generator) GenerateInto(seed Seed, sc *Scratch) (*prog.Program, error) {
	st := &sc.st
	st.reset(g.prof, g.params, Split(seed))
	p, err := st.run()
	if err != nil {
		return nil, fmt.Errorf("perfprox: generating widget: %w", err)
	}
	return p, nil
}

// MemoryPlan reports the scratch-memory declaration — size in bytes and
// content seed — that the widget generated from seed will carry, from the
// hash seed and the profile alone (TestMemoryPlanMatchesGenerated pins it
// to the generated program's MemSize and MemSeed). Nothing in the hashing
// pipeline needs it any more — there is no image to prepare ahead of the
// widget, the VM computes untouched words on load — and it stays, with
// vm.Machine.PrepareMemory, for the benchmark's decomposed replay.
func (g *Generator) MemoryPlan(seed Seed) (size int, memSeed uint64) {
	return g.prof.WorkingSet, expandMemSeed(Split(seed).Mem)
}

// GenerateSource builds the widget and renders it as assembly text — the
// analogue of the paper's generated C source. Compile it back with
// asm.Assemble.
func (g *Generator) GenerateSource(seed Seed) (string, error) {
	p, err := g.Generate(seed)
	if err != nil {
		return "", err
	}
	return asm.Disassemble(p), nil
}

// Register conventions inside generated widgets. r0..r4 form the general
// integer pool; the rest have fixed roles so the generator can emit
// self-contained code.
const (
	regPoolSize = 5  // r0..r4: general integer pool
	regShiftB   = 5  // second rotate amount
	regShiftA   = 6  // first rotate amount
	regThresh   = 7  // data-dependent branch threshold
	regMask     = 8  // low-bits mask (255)
	regScratch  = 9  // branch condition scratch
	regChase    = 10 // pointer-chase register
	regEntropy  = 11 // per-iteration entropy state
	regStride   = 12 // strided access base
	regSeq      = 13 // sequential access base
	regZero     = 14 // always zero
	regCounter  = 15 // outer loop counter
)

// genState carries all mutable state for one widget generation. It is
// embedded in Scratch and fully re-initialized by reset, so the same
// value can drive any number of generations; the PRNGs, budgets and
// recency rings are fixed-size values (no maps, no per-generation
// allocation — per-class state is indexed arrays, which also keeps the
// emission loop free of map-hashing overhead).
type genState struct {
	prof   *profile.Profile
	params Params
	fields Fields

	bbv       rng.Xoshiro256 // code structure decisions
	mem       rng.Xoshiro256 // memory pattern decisions
	branchRng rng.Xoshiro256 // branch behaviour decisions

	b prog.Builder

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
	kinds      []diamondKind
	armClasses []isa.Class
	out        prog.Program
}

// reset re-initializes every generation-scoped field; storage-bearing
// fields (builder, kinds, armClasses, out) keep their capacity.
func (st *genState) reset(prof *profile.Profile, params Params, fields Fields) {
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

var errBudget = errors.New("perfprox: class budgets infeasible for structure overhead")

// run executes the generation pipeline.
func (st *genState) run() (*prog.Program, error) {
	st.computeBudgets()
	if err := st.planBranches(); err != nil {
		return nil, err
	}
	st.planMemory()

	st.b.Reset(st.prof.WorkingSet, st.memSeed())
	st.b.NewBlock() // entry; falls through to the loop head
	st.emitEntry()
	if err := st.emitBody(); err != nil {
		return nil, err
	}
	if err := st.b.BuildInto(&st.out); err != nil {
		return nil, err
	}
	return &st.out, nil
}

// memSeed expands the 32-bit memory field into the 64-bit scratch-memory
// content seed.
func (st *genState) memSeed() uint64 {
	return expandMemSeed(st.fields.Mem)
}

// expandMemSeed is the single definition of the memory-field expansion,
// shared by generation and MemoryPlan so the two can never drift.
func expandMemSeed(field uint32) uint64 {
	sm := rng.SplitMix64{}
	sm.Seed(uint64(field))
	return sm.Next()
}

// computeBudgets turns the profile mix plus seed noise into per-iteration
// integer budgets. Noise is positive-only and applies to the five Table I
// count classes; branch and vector counts stay at their base values.
func (st *genState) computeBudgets() {
	T := float64(st.prof.TargetDynamic)
	L := st.params.LoopTrips
	noise := func(field uint32) float64 { return 1 + st.params.Noise*Unit(field) }
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
func (st *genState) planBranches() error {
	nBranch := st.budget[isa.ClassBranch]
	if nBranch < 1 {
		nBranch = 1 // the loop branch always exists
	}
	st.nDiamonds = (nBranch - 1) / 2
	condBranches := st.nDiamonds + 1 // diamonds + loop branch

	st.nDataDep = int(float64(st.nDiamonds)*st.prof.BranchDataDep + 0.5)
	if st.nDataDep > st.nDiamonds {
		st.nDataDep = st.nDiamonds
	}
	st.nStatic = st.nDiamonds - st.nDataDep

	// Perturb the data-dependent bias with the Table I branch field.
	biasNoise := (Unit(st.fields.Branch) - 0.5) * 0.125
	bias := st.prof.BranchBias + biasNoise
	if bias < 0.02 {
		bias = 0.02
	}
	if bias > 0.98 {
		bias = 0.98
	}
	st.thresh = int64(bias*256 + 0.5)
	if st.thresh < 1 {
		st.thresh = 1
	}
	if st.thresh > 255 {
		st.thresh = 255
	}

	// Choose how many static diamonds are always-taken so the overall
	// conditional-branch taken rate approximates the profile's.
	wantTaken := st.prof.BranchTaken * float64(condBranches)
	expected := 1.0 + float64(st.nDataDep)*bias // loop branch + data-dep expectation
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
func (st *genState) planMemory() {
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
