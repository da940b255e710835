package rng

import (
	"math/bits"
	"testing"
)

// emitting returns a generator whose next output is v. Xoshiro256**'s
// output depends on s1 alone — rotl(s1·5, 7)·9 — and both multipliers are
// odd, so s1 is v times 9's inverse, rotated back, times 5's inverse; the
// other words only have to keep the state non-zero.
func emitting(v uint64) Xoshiro256 {
	inv := func(a uint64) uint64 { // Newton's iteration for a⁻¹ mod 2^64
		x := a
		for i := 0; i < 6; i++ {
			x *= 2 - a*x
		}
		return x
	}
	s1 := bits.RotateLeft64(v*inv(9), -7) * inv(5)
	return Xoshiro256{s0: 1, s1: s1, s2: 2, s3: 3}
}

func TestEmittingEmits(t *testing.T) {
	for _, v := range []uint64{0, 1, 1 << 63, ^uint64(0), 0x0123456789abcdef} {
		x := emitting(v)
		if got := x.Next(); got != v {
			t.Errorf("emitting(%#x).Next() = %#x", v, got)
		}
	}
}

// pickVectors are weight vectors with zero weights in every position,
// totals that are and are not powers of two, and ones whose
// 1-2^-53 target rounds up to the total (three equal weights).
var pickVectors = [][]float64{
	{1, 1, 1},
	{1, 1, 1, 0},
	{0, 1, 1, 1},
	{5, 3, 4, 2, 2, 1.5, 1.5, 1.5, 1, 1, 1, 2},
	{5, 4, 4, 1, 1, 1, 2, 1},
	{3, 3, 3, 2, 1},
	{0.33, 0.03, 0.02, 0.62},
	{0.33, 0.03, 0.64},
	{0.7, 0, 0.3, 0},
	{1e-9, 1, 1e-9},
	{2, 2},
}

// TestPickCumMatchesPick: PickCum over CumWeights draws the index Pick
// draws, draw for draw, on random draws and at the top draw 1-2^-53, where
// fl(u·total) can round up to the total.
func TestPickCumMatchesPick(t *testing.T) {
	for _, w := range pickVectors {
		cum := CumWeights(nil, w)
		a, b := NewXoshiro256(uint64(len(w))), NewXoshiro256(uint64(len(w)))
		for i := 0; i < 20000; i++ {
			if got, want := a.PickCum(cum), b.Pick(w); got != want {
				t.Fatalf("%v draw %d: PickCum = %d, Pick = %d", w, i, got, want)
			}
		}
		top, top2 := emitting(^uint64(0)), emitting(^uint64(0))
		if got, want := top.PickCum(cum), top2.Pick(w); got != want {
			t.Errorf("%v at u = 1-2^-53: PickCum = %d, Pick = %d", w, got, want)
		}
	}
}

// TestPickCutsMatchPickCum: the index PickCum draws is the number of cuts
// the draw's 53 bits reach, at every cut, one below and one above, and at
// both ends of the range.
func TestPickCutsMatchPickCum(t *testing.T) {
	for _, w := range pickVectors {
		cum := CumWeights(nil, w)
		cuts := PickCuts(nil, cum)
		xs := []uint64{0, 1<<53 - 1}
		for _, c := range cuts {
			xs = append(xs, c-1, c, c+1)
		}
		for _, x := range xs {
			if x >= 1<<53 {
				continue
			}
			n := 0
			for _, c := range cuts {
				if x >= c {
					n++
				}
			}
			g := emitting(x<<11 | 0x5a5)
			if got := g.PickCum(cum); got != n {
				t.Errorf("%v: draw %#x: PickCum = %d, cuts reached = %d", w, x, got, n)
			}
		}
	}
}

func TestFloatCut(t *testing.T) {
	for _, p := range []float64{0, 1e-300, 0.25, 1.0 / 3, 0.6, 0.999999, 1} {
		c := FloatCut(p)
		for _, x := range []uint64{0, c - 1, c, c + 1, 1<<53 - 1} {
			if x >= 1<<53 {
				continue
			}
			g := emitting(x << 11)
			if got, want := g.Float64() < p, x < c; got != want {
				t.Errorf("p = %v, draw %#x: Float64() < p is %v, draw < FloatCut(p) is %v", p, x, got, want)
			}
		}
	}
}

// TestLookaheadIsTheStream: a Lookahead read in steps of every size gives
// the generator's outputs, and its NormFloat64 the generator's.
func TestLookaheadIsTheStream(t *testing.T) {
	var l Lookahead
	l.Seed(99)
	x := NewXoshiro256(99)
	for step := 1; step < 40; step++ {
		i := l.Window(step)
		for k := 0; k < step; k++ {
			if want := x.Next(); l.Buf[i+k] != want {
				t.Fatalf("step %d, output %d: %#x, want %#x", step, k, l.Buf[i+k], want)
			}
		}
		l.Pos = i + step
		if got, want := l.NormFloat64(), x.NormFloat64(); got != want {
			t.Fatalf("step %d: NormFloat64 %v, want %v", step, got, want)
		}
	}
}

// TestLookaheadFindsZeros: a zero output inside the window is reported
// at or before its position.
func TestLookaheadFindsZeros(t *testing.T) {
	var l Lookahead
	l.Seed(1)
	if l.Window(LookaheadSize); l.Zero != LookaheadSize {
		t.Fatalf("Zero = %d with no zero output", l.Zero)
	}
	l.Pos = LookaheadSize - 10
	l.x = emitting(0) // the first output refill generates
	i := l.Window(20)
	if l.Buf[i+10] != 0 || l.Zero > i+10 {
		t.Fatalf("zero output at %d (%#x): Zero = %d", i+10, l.Buf[i+10], l.Zero)
	}
}
