package rng

import "math"

// sqrt and ln wrap math.Sqrt / math.Log. They exist so that every
// floating-point operation the generators perform flows through one audited
// place. Only sqrt is the same everywhere: IEEE 754 rounds a square root
// correctly, and math.Sqrt is that on every platform. Go makes no such
// promise for math.Log. It is assembly on amd64 (archLog), a different
// algorithm in assembly on s390x, and pure Go elsewhere, so ln may differ
// in the last bit across architectures, and with it a digest. Making ln
// the same everywhere is open work (ROADMAP, "Same digest on every
// GOARCH", item (b)).
func sqrt(x float64) float64 { return math.Sqrt(x) }

func ln(x float64) float64 { return math.Log(x) }

// ceil is exact everywhere: rounding up to an integer needs no
// approximation.
func ceil(x float64) float64 { return math.Ceil(x) }
