// Package perfprox generates widgets: synthetic programs matching a
// perturbed performance profile, in the style of PerfProx proxies
// (Panda & John, ISPASS'17) as modified by the HashCore paper.
//
// The 256-bit hash seed is split exactly as the paper's Table I:
//
//	bits   0- 31  Integer ALU noise
//	bits  32- 63  Integer Multiply noise
//	bits  64- 95  Floating Point ALU noise
//	bits  96-127  Loads noise
//	bits 128-159  Stores noise
//	bits 160-191  Branch Behavior noise
//	bits 192-223  Basic Block Vector seed
//	bits 224-255  Memory seed
//
// The first five fields add *positive-only* noise to their class's dynamic
// instruction budget (paper §V: "HashCore only adds positive noise to the
// instruction type counts"), the branch field perturbs branch behaviour
// (bias and pattern selection) without changing the branch count — which is
// why widgets have proportionally fewer branches than the profile — and
// the last two fields seed the PRNGs that drive code structure and memory
// behaviour.
package perfprox

import "encoding/binary"

// SeedSize is the hash seed size in bytes (256 bits).
const SeedSize = 32

// Seed is a 256-bit hash seed (the output of the first hash gate).
type Seed [SeedSize]byte

// Fields is the Table I decomposition of a hash seed into eight 32-bit
// integers.
type Fields struct {
	IntALU uint32 // bits 0-31: integer ALU count noise
	IntMul uint32 // bits 32-63: integer multiply count noise
	FPALU  uint32 // bits 64-95: floating-point ALU count noise
	Loads  uint32 // bits 96-127: load count noise
	Stores uint32 // bits 128-159: store count noise
	Branch uint32 // bits 160-191: branch behaviour noise
	BBV    uint32 // bits 192-223: basic block vector PRNG seed
	Mem    uint32 // bits 224-255: memory PRNG seed
}

// Split decomposes a seed per Table I. Bit i of the seed is bit (i mod 32)
// of field i/32, with the seed read as eight big-endian 32-bit words.
func Split(seed Seed) Fields {
	w := func(i int) uint32 { return binary.BigEndian.Uint32(seed[i*4:]) }
	return Fields{
		IntALU: w(0),
		IntMul: w(1),
		FPALU:  w(2),
		Loads:  w(3),
		Stores: w(4),
		Branch: w(5),
		BBV:    w(6),
		Mem:    w(7),
	}
}

// Unit maps a 32-bit field to the unit interval [0, 1). The compiler makes
// the division a multiply by 2^-32; the explicit conversion keeps that
// product, once inlined, from fusing into an add of the caller's.
func Unit(field uint32) float64 {
	return float64(float64(field) / (1 << 32))
}
