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
//
// The state is four words rather than an array of them so that a
// Xoshiro256 held in a local variable can live in registers (Go keeps a
// struct of up to four scalar fields in registers, never an array of
// more than one): Lookahead's refill steps such a copy without touching
// memory.
type Xoshiro256 struct {
	s0, s1, s2, s3 uint64
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
	x.s0 = sm.Next()
	x.s1 = sm.Next()
	x.s2 = sm.Next()
	x.s3 = sm.Next()
	// SplitMix64 is a bijection walked from four distinct states, so at
	// least one word is non-zero for every seed; guard anyway.
	if *x == (Xoshiro256{}) {
		x.s0 = SplitMix64Gamma
	}
}

func rotl(x uint64, k uint) uint64 {
	return (x << k) | (x >> (64 - k))
}

// Next returns the next 64 bits of the stream.
func (x *Xoshiro256) Next() uint64 {
	v, next := x.step()
	*x = next
	return v
}

// step returns what Next would return and the state Next would leave,
// without changing x.
func (x Xoshiro256) step() (uint64, Xoshiro256) {
	result := rotl(x.s1*5, 7) * 9
	t := x.s1 << 17

	x.s2 ^= x.s0
	x.s3 ^= x.s1
	x.s1 ^= x.s2
	x.s0 ^= x.s3
	x.s2 ^= t
	x.s3 = rotl(x.s3, 45)
	return result, x
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
// precision. The compiler makes the division a multiply by 2^-53; the
// explicit conversion keeps that product, once inlined, from fusing into an
// add of the caller's (see NormFloat64).
func (x *Xoshiro256) Float64() float64 {
	return float64(float64(x.Next()>>11) / (1 << 53))
}

// NormFloat64 returns a normally distributed float64 with mean 0 and
// standard deviation 1, using the polar (Marsaglia) method. The method uses
// only arithmetic whose results are identical across conforming IEEE-754
// platforms, keeping generated widgets reproducible: every product that
// feeds an add is rounded by an explicit conversion, which forbids Go from
// fusing the two into a multiply-add on the architectures that have one.
func (x *Xoshiro256) NormFloat64() float64 {
	for {
		if z, ok := polar(x.Float64(), x.Float64()); ok {
			return z
		}
	}
}

// polar is one attempt of the polar method on two uniform draws a and b:
// the normal deviate, or ok false when the point they make falls outside
// the unit disc (or on its centre) and two more draws are needed.
func polar(a, b float64) (z float64, ok bool) {
	u := float64(2*a) - 1
	v := float64(2*b) - 1
	s := float64(u*u) + float64(v*v)
	if s >= 1 || s == 0 {
		return 0, false
	}
	// ln and sqrt on float64 are correctly rounded or
	// platform-identical in Go's math package for these inputs.
	f := sqrt(-2 * ln(s) / s)
	return u * f, true
}

// LookaheadSize is the length of a Lookahead's window.
const LookaheadSize = 128

// Lookahead is a Xoshiro256 stream read through a window of its coming
// outputs. A consumer that decides from the draws themselves how many to
// take — a coin that, when it fails, takes a second draw — can read both
// before deciding and then advance by one or by two, with no branch on
// the coin; the window is what it indexes. Its Next, Float64 and
// NormFloat64 consume the stream exactly as Xoshiro256's consume the
// generator's: the draws and their order are the generator's, whoever
// reads them.
type Lookahead struct {
	// Buf[Pos:] are the stream's next outputs; x is the generator after
	// the last of them.
	Buf [LookaheadSize]uint64
	Pos int
	// Zero is at most the position in Buf of the first output at or past
	// Pos that is 0 — LookaheadSize when there is none — so a consumer to
	// whom a zero draw is special (Intn's rejection, for an odd bound)
	// tests a whole stretch of the window with one comparison. It does not
	// move when the zero is consumed.
	Zero int
	x    Xoshiro256
}

// Seed starts the stream of NewXoshiro256(seed), with an empty window.
func (l *Lookahead) Seed(seed uint64) {
	l.x.Seed(seed)
	l.Pos, l.Zero = LookaheadSize, LookaheadSize
}

// Window makes sure at least n outputs (n ≤ LookaheadSize) lie in
// Buf[Pos:] and returns Pos. A consumer reads Buf from there and stores
// the position after the outputs it took back into Pos.
func (l *Lookahead) Window(n int) int {
	if l.Pos > LookaheadSize-n {
		l.refill()
	}
	return l.Pos
}

// refill moves the unread outputs to the front of the window and fills
// the rest of it from the generator.
func (l *Lookahead) refill() {
	n := copy(l.Buf[:], l.Buf[l.Pos:])
	l.Pos, l.Zero = 0, LookaheadSize
	for i, v := range l.Buf[:n] {
		if v == 0 {
			l.Zero = i
			break
		}
	}
	x := l.x // in registers
	for i := n; i < LookaheadSize; i++ {
		var v uint64
		v, x = x.step()
		l.Buf[i] = v
		if v == 0 {
			l.Zero = min(l.Zero, i)
		}
	}
	l.x = x
}

// Next returns the next 64 bits of the stream.
func (l *Lookahead) Next() uint64 {
	if l.Pos >= LookaheadSize {
		l.refill()
	}
	l.Pos++
	return l.Buf[l.Pos-1]
}

// Float64 is Xoshiro256.Float64 on the stream.
func (l *Lookahead) Float64() float64 {
	return float64(float64(l.Next()>>11) / (1 << 53))
}

// NormFloat64 is Xoshiro256.NormFloat64 on the stream.
func (l *Lookahead) NormFloat64() float64 {
	for {
		if z, ok := polar(l.Float64(), l.Float64()); ok {
			return z
		}
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

// FloatCut is the comparison Float64() < p on the integer a draw is made
// of: for every state, x.Float64() < p exactly when x.Next()>>11 <
// FloatCut(p). Float64 is that integer times 2^-53, an exact scaling, so
// the cut is p·2^53 (exact too) rounded up.
func FloatCut(p float64) uint64 {
	switch {
	case !(p > 0):
		return 0
	case p >= 1:
		return 1 << 53
	}
	return uint64(ceil(p * (1 << 53)))
}

// PickCuts is PickCum's comparisons on the integer a draw is made of: for
// a cumulative vector cum of positive total, the index PickCum(cum)
// returns is the number of the cuts that x.Next()>>11 reaches — the same
// index, draw for draw. Cut i is the least 53-bit integer whose target,
// fl(u·total), reaches cum[i] (the target is monotone in the draw), or
// 2^53 if none does; the last entry of cum needs no cut, because PickCum
// returns the last index both when the target falls below it and when it
// rounds up to the total. The cuts are appended to dst.
func PickCuts(dst []uint64, cum []float64) []uint64 {
	total := cum[len(cum)-1]
	if !(total > 0) {
		panic("rng: PickCuts of a vector with no positive weight")
	}
	for _, c := range cum[:len(cum)-1] {
		lo, hi := uint64(0), uint64(1<<53) // the cut is in [lo, hi]
		for lo < hi {
			mid := lo + (hi-lo)/2
			if float64(float64(mid)/(1<<53))*total >= c {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		dst = append(dst, lo)
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
