// Package rng provides small, deterministic pseudo-random number generators
// used throughout HashCore.
//
// The widget generator must produce bit-identical programs from the same
// 256-bit hash seed on every platform and in every future version of the Go
// toolchain, so HashCore cannot depend on math/rand (whose stream is only
// stable per major version and whose default source is not seedable from a
// fixed 64-bit state in a documented way). The generators here are
// well-known, public-domain constructions with exact reference outputs:
//
//   - SplitMix64 (Steele, Lea, Vigna) — used to expand 64-bit seed words.
//   - xoshiro256** (Blackman, Vigna) — the general-purpose stream generator.
package rng

import "math/bits"

// SplitMix64 is a 64-bit state PRNG with a single additive state update.
// It is primarily used to seed xoshiro256** and to derive independent
// sub-streams from 32-bit seed fields. The zero value is a valid generator
// (seeded with 0).
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Seed resets the generator state in place, so value-typed generators
// embedded in reusable scratch structs can be reseeded without
// allocating.
func (s *SplitMix64) Seed(seed uint64) { s.state = seed }

// The SplitMix64 constants: the additive state step (the 64-bit golden
// ratio) and the two multipliers of the output finalizer. Exported because
// the native backend's load routine computes SplitMix64At in machine code
// (internal/jit) and must use these exact values.
const (
	SplitMix64Gamma = 0x9e3779b97f4a7c15
	SplitMix64Mul1  = 0xbf58476d1ce4e5b9
	SplitMix64Mul2  = 0x94d049bb133111eb
)

// mix64 is SplitMix64's output finalizer, shared by the sequential
// generator (Next) and the random-access form (SplitMix64At). The VM's
// scratch memory is defined through SplitMix64At — word i of a pristine
// image IS SplitMix64At(memSeed, i), computed when a load asks for it —
// so this must remain bit-identical forever.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * SplitMix64Mul1
	z = (z ^ (z >> 27)) * SplitMix64Mul2
	return z ^ (z >> 31)
}

// Next returns the next 64 bits of the stream.
func (s *SplitMix64) Next() uint64 {
	s.state += SplitMix64Gamma
	return mix64(s.state)
}

// SplitMix64At returns the i-th output (0-based) of the SplitMix64 stream
// seeded with seed — identical to calling Next i+1 times on a fresh
// generator, in O(1). SplitMix64's state walk is a plain additive counter,
// so any position of the stream can be computed directly; the VM uses this
// to produce the scratch-memory words a run never stored to, on load,
// instead of ever materializing the image.
func SplitMix64At(seed, i uint64) uint64 {
	return mix64(seed + (i+1)*SplitMix64Gamma)
}

// Xoshiro256 implements the xoshiro256** 1.0 generator.
// Construct it with NewXoshiro256; the zero value would be an all-zero
// state, which is the one invalid state, so NewXoshiro256 guarantees a
// non-zero state by seeding through SplitMix64.
type Xoshiro256 struct {
	s [4]uint64
}

// NewXoshiro256 returns a xoshiro256** generator whose state is derived
// from seed via SplitMix64, as recommended by the xoshiro authors.
func NewXoshiro256(seed uint64) *Xoshiro256 {
	var x Xoshiro256
	x.Seed(seed)
	return &x
}

// Seed (re)initializes the generator state in place from seed via
// SplitMix64, producing exactly the same stream as NewXoshiro256(seed).
// It lets value-typed generators embedded in reusable scratch structs be
// reseeded without allocating.
func (x *Xoshiro256) Seed(seed uint64) {
	sm := SplitMix64{state: seed}
	for i := range x.s {
		x.s[i] = sm.Next()
	}
	// SplitMix64 is a bijection walked from four distinct states, so at
	// least one word is non-zero for every seed; guard anyway.
	if x.s == [4]uint64{} {
		x.s[0] = SplitMix64Gamma
	}
}

func rotl(x uint64, k uint) uint64 {
	return (x << k) | (x >> (64 - k))
}

// Next returns the next 64 bits of the stream.
func (x *Xoshiro256) Next() uint64 {
	result := rotl(x.s[1]*5, 7) * 9
	t := x.s[1] << 17

	x.s[2] ^= x.s[0]
	x.s[3] ^= x.s[1]
	x.s[1] ^= x.s[2]
	x.s[0] ^= x.s[3]
	x.s[2] ^= t
	x.s[3] = rotl(x.s[3], 45)
	return result
}

// Uint32 returns the next 32 bits of the stream.
func (x *Xoshiro256) Uint32() uint32 {
	return uint32(x.Next() >> 32)
}

// Intn returns a uniformly distributed integer in [0, n).
// It panics if n <= 0. Uses Lemire's multiply-shift rejection method so the
// result is exactly uniform and reproducible.
func (x *Xoshiro256) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	bound := uint64(n)
	for {
		v := x.Next()
		hi, lo := mul128(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul128 returns the 128-bit product of a and b as (hi, lo). The full
// product of two uint64s is exact, so delegating to the hardware multiply
// via math/bits is bit-identical to the former long-multiplication
// routine — it is just one instruction instead of eight (Intn sits on the
// widget generator's per-instruction path).
func mul128(a, b uint64) (hi, lo uint64) {
	return bits.Mul64(a, b)
}

// Float64 returns a uniformly distributed float64 in [0, 1) with 53 bits of
// precision.
func (x *Xoshiro256) Float64() float64 {
	return float64(x.Next()>>11) / (1 << 53)
}

// NormFloat64 returns a normally distributed float64 with mean 0 and
// standard deviation 1, using the polar (Marsaglia) method. The method uses
// only arithmetic whose results are identical across conforming IEEE-754
// platforms, keeping generated widgets reproducible.
func (x *Xoshiro256) NormFloat64() float64 {
	for {
		u := 2*x.Float64() - 1
		v := 2*x.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		// ln and sqrt on float64 are correctly rounded or
		// platform-identical in Go's math package for these inputs.
		f := sqrt(-2 * ln(s) / s)
		return u * f
	}
}

// Pick returns a uniformly chosen element index weighted by weights.
// The weights need not be normalized; negative weights are treated as zero.
// If all weights are zero it returns 0.
func (x *Xoshiro256) Pick(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return 0
	}
	target := x.Float64() * total
	var acc float64
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		if target < acc {
			return i
		}
	}
	return len(weights) - 1
}

// PickCum is Pick for callers that hold the cumulative form of an
// invariant weight vector: cum[i] must equal the running sum of the
// positive weights through index i, accumulated left to right in the same
// order Pick adds them (so entries with non-positive weight repeat the
// previous cumulative value, and cum's last element is Pick's total).
// Under that contract PickCum consumes one Float64 draw and returns
// bit-identically the index Pick would have returned — same target, same
// partial-sum comparisons — while doing no summation per call. If the
// total is zero it returns 0. CumWeights builds a conforming vector.
func (x *Xoshiro256) PickCum(cum []float64) int {
	total := cum[len(cum)-1]
	if total <= 0 {
		return 0
	}
	target := x.Float64() * total
	for i, c := range cum {
		if target < c {
			return i
		}
	}
	return len(cum) - 1
}

// CumWeights converts a weight vector into the cumulative form PickCum
// requires, appending into dst (grown as needed and returned). The partial
// sums are accumulated exactly as Pick accumulates them, which is what
// makes Pick(weights) and PickCum(CumWeights(nil, weights)) interchangeable
// draw for draw.
func CumWeights(dst, weights []float64) []float64 {
	var acc float64
	for _, w := range weights {
		if w > 0 {
			acc += w
		}
		dst = append(dst, acc)
	}
	return dst
}

// Shuffle pseudo-randomly permutes the order of n elements using swap,
// which exchanges elements i and j (Fisher–Yates).
func (x *Xoshiro256) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := x.Intn(i + 1)
		swap(i, j)
	}
}
