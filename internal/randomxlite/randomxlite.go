// Package randomxlite is a simplified RandomX-style PoW baseline for the
// paper's §VI-C discussion ("Alternatives to Inverted Benchmarking").
//
// Where HashCore's generator targets the execution profile of a reference
// workload, RandomX "instead target[s] explicit utilization of each
// computational structure": it draws instructions uniformly over the
// machine's functional classes with no workload model. This package
// reproduces that design point on the same ISA/VM substrate so the two
// generation philosophies can be compared on identical footing
// (BenchmarkAblation_RandomXLite and the hcbench randomx experiment).
package randomxlite

import (
	"fmt"

	"hashcore/internal/gate"
	"hashcore/internal/isa"
	"hashcore/internal/perfprox"
	"hashcore/internal/prog"
	"hashcore/internal/rng"
	"hashcore/internal/vm"
	"hashcore/internal/workload/refprog"
)

// Params configures the random-program generator.
type Params struct {
	// ScratchSize is the scratchpad size in bytes (power of two).
	// Default 2 MiB (RandomX uses a 2 MiB scratchpad per VM).
	ScratchSize int
	// ProgramSize is the number of instructions per loop iteration.
	// Default 256 (RandomX programs are 256 instructions).
	ProgramSize int
	// Iterations is the loop trip count. Default 512.
	Iterations int
}

func (p Params) withDefaults() Params {
	if p.ScratchSize == 0 {
		p.ScratchSize = 2 << 20
	}
	if p.ProgramSize == 0 {
		p.ProgramSize = 256
	}
	if p.Iterations == 0 {
		p.Iterations = 512
	}
	return p
}

// Generator builds uniform random programs from hash seeds.
type Generator struct {
	params Params
}

// NewGenerator validates params and returns a generator.
func NewGenerator(params Params) (*Generator, error) {
	p := params.withDefaults()
	if p.ScratchSize < prog.MinMemSize || p.ScratchSize > prog.MaxMemSize ||
		p.ScratchSize&(p.ScratchSize-1) != 0 {
		return nil, fmt.Errorf("randomxlite: scratch size %d invalid", p.ScratchSize)
	}
	if p.ProgramSize < 8 || p.ProgramSize > 1<<16 {
		return nil, fmt.Errorf("randomxlite: program size %d invalid", p.ProgramSize)
	}
	if p.Iterations < 1 || p.Iterations > 1<<20 {
		return nil, fmt.Errorf("randomxlite: iterations %d invalid", p.Iterations)
	}
	return &Generator{params: p}, nil
}

// classWeights gives every structural class equal footing, mirroring
// RandomX's explicit-utilization philosophy (frequencies are uniform
// across units rather than matched to any workload).
var classes = []isa.Class{
	isa.ClassIntALU, isa.ClassIntMul, isa.ClassFPALU,
	isa.ClassLoad, isa.ClassStore, isa.ClassVector,
}

// Generate builds the random program for a seed. All 256 bits feed one
// PRNG — unlike HashCore there is no Table I structure to the seed.
func (g *Generator) Generate(seed [32]byte) (*prog.Program, error) {
	sm := rng.NewSplitMix64(0)
	var mix uint64
	for i := 0; i < 4; i++ {
		word := uint64(0)
		for j := 0; j < 8; j++ {
			word = word<<8 | uint64(seed[i*8+j])
		}
		sm = rng.NewSplitMix64(word ^ mix)
		mix = sm.Next()
	}
	x := rng.NewXoshiro256(mix)

	b := refprog.NewBuilder(g.params.ScratchSize, x.Next())
	b.NewBlock()
	b.MovI(15, int64(g.params.Iterations))
	b.MovI(14, 0)
	for i := 0; i < 8; i++ {
		b.MovI(uint8(i), int64(x.Next()))
	}
	for i := 0; i < 8; i++ {
		b.Op2(isa.OpFCvt, uint8(i), uint8(i))
	}
	for i := 0; i < 4; i++ {
		b.Op2(isa.OpVBcast, uint8(i), uint8(i))
	}

	loop := b.NewBlock()
	for i := 0; i < g.params.ProgramSize; i++ {
		g.emitUniform(b, x)
	}
	b.AddI(15, 15, -1)
	b.Branch(isa.OpBne, 15, 14, loop)

	exit := b.NewBlock()
	b.SetBlock(exit)
	b.Halt()
	return b.Build()
}

// emitUniform emits one instruction with the class drawn uniformly.
func (g *Generator) emitUniform(b *refprog.Builder, x *rng.Xoshiro256) {
	pool := func() uint8 { return uint8(x.Intn(8)) }
	switch classes[x.Intn(len(classes))] {
	case isa.ClassIntALU:
		ops := []isa.Opcode{isa.OpAdd, isa.OpSub, isa.OpXor, isa.OpAnd, isa.OpOr, isa.OpShl, isa.OpShr, isa.OpRor}
		b.Op3(ops[x.Intn(len(ops))], pool(), pool(), pool())
	case isa.ClassIntMul:
		if x.Intn(2) == 0 {
			b.Op3(isa.OpMul, pool(), pool(), pool())
		} else {
			b.Op3(isa.OpMulH, pool(), pool(), pool())
		}
	case isa.ClassFPALU:
		ops := []isa.Opcode{isa.OpFAdd, isa.OpFSub, isa.OpFMul, isa.OpFDiv}
		b.Op3(ops[x.Intn(len(ops))], pool(), pool(), pool())
	case isa.ClassLoad:
		b.Load(pool(), pool(), int64(x.Intn(1<<16)))
	case isa.ClassStore:
		b.Store(pool(), pool(), int64(x.Intn(1<<16)))
	case isa.ClassVector:
		ops := []isa.Opcode{isa.OpVAdd, isa.OpVXor, isa.OpVMul}
		b.Op3(ops[x.Intn(len(ops))], uint8(x.Intn(8)), uint8(x.Intn(8)), uint8(x.Intn(8)))
	}
}

// Hasher is the RandomX-lite PoW function: H(x) = G(s || W(s)) with the
// uniform generator as W. It satisfies pow.Hasher.
type Hasher struct {
	gen *Generator
}

// NewHasher builds the PoW function, with SHA-256 as its gate.
func NewHasher(params Params) (*Hasher, error) {
	gen, err := NewGenerator(params)
	if err != nil {
		return nil, err
	}
	return &Hasher{gen: gen}, nil
}

// Hash computes the PoW digest of header.
func (h *Hasher) Hash(header []byte) ([32]byte, error) {
	s := gate.SHA256{}.Sum(header)
	p, err := h.gen.Generate(s)
	if err != nil {
		return [32]byte{}, err
	}
	res, err := vm.Run(p, vm.Params{}, nil)
	if err != nil {
		return [32]byte{}, err
	}
	buf := make([]byte, 0, len(s)+len(res.Output))
	buf = append(buf, s[:]...)
	buf = append(buf, res.Output...)
	return gate.SHA256{}.Sum(buf), nil
}

// Name returns "randomx-lite".
func (h *Hasher) Name() string { return "randomx-lite" }

// Seed re-exports the seed type used by Generate for convenience in the
// experiment harness.
type Seed = perfprox.Seed
