package rng

import "math"

// sqrt, ln and ceil are every floating-point function the generators
// call, in one audited place. sqrt and ceil are the same everywhere: IEEE
// 754 rounds a square root correctly, math.Sqrt is that on every
// platform, and rounding up to an integer needs no approximation.
func sqrt(x float64) float64 { return math.Sqrt(x) }

func ceil(x float64) float64 { return math.Ceil(x) }

// ln is the natural logarithm of the polar method's s (see polar): x in
// (0, 1) and never subnormal, since s ≥ 2^-104. It is math.Log as amd64
// computes it (archLog, whose algorithm is math/log.go's operation for
// operation), ported to Go so that every GOARCH runs the same operations:
// math.Log itself is a different algorithm on s390x and, elsewhere, Go
// code that a compiler may fuse into multiply-adds. Every product is
// wrapped in float64(), which forbids that fusion. Outside its domain
// (zero, negative, subnormal, infinite or NaN x) the result is garbage.
func ln(x float64) float64 {
	const (
		hSqrt2 = 7.07106781186547524401e-01 // sqrt(2)/2
		ln2Hi  = 6.93147180369123816490e-01 // 0x3fe62e42fee00000
		ln2Lo  = 1.90821492927058770002e-10 // 0x3dea39ef35793c76
		l1     = 6.666666666666735130e-01   // 0x3FE5555555555593
		l2     = 3.999999999940941908e-01   // 0x3FD999999997FA04
		l3     = 2.857142874366239149e-01   // 0x3FD2492494229359
		l4     = 2.222219843214978396e-01   // 0x3FCC71C51D8E78AF
		l5     = 1.818357216161805012e-01   // 0x3FC7466496CB03DE
		l6     = 1.531383769920937332e-01   // 0x3FC39A09D078C69F
		l7     = 1.479819860511658591e-01   // 0x3FC2F112DF3E5244
	)
	// x = f1 · 2^k with f1 in [0.5, 1), read off the bits (x is normal);
	// then f1 in [sqrt(2)/2, sqrt(2)).
	bits := math.Float64bits(x)
	f1 := math.Float64frombits(bits&(1<<52-1) | 0x3FE<<52)
	k := float64(int(bits>>52&0x7FF) - 0x3FE)
	if f1 < hSqrt2 {
		f1 *= 2
		k--
	}
	f := f1 - 1
	s := f / (2 + f)
	s2 := float64(s * s)
	s4 := float64(s2 * s2)
	t1 := float64(s2 * (l1 + float64(s4*(l3+float64(s4*(l5+float64(s4*l7)))))))
	t2 := float64(s4 * (l2 + float64(s4*(l4+float64(s4*l6)))))
	r := t1 + t2
	hfsq := float64(float64(0.5*f) * f)
	return float64(k*ln2Hi) - ((hfsq - (float64(s*(hfsq+r)) + float64(k*ln2Lo))) - f)
}
