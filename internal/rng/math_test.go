package rng

import (
	"math"
	"runtime"
	"testing"
)

// lnEdges are the ends of ln's domain and the points where its reduction
// changes branch: the smallest s polar can make (u = 2^-52, v = 0), the
// largest below 1, and sqrt(2)/2 with its neighbours at the top and
// bottom exponents.
var lnEdges = []float64{
	0x1p-104,
	0x1p-104 * (1 + 0x1p-52),
	math.Nextafter(1, 0),
	0.5,
	math.Nextafter(0.5, 1),
	math.Nextafter(0.5, 0),
	0.7071067811865476,
	math.Nextafter(0.7071067811865476, 1),
	math.Nextafter(0.7071067811865476, 0),
	0x1p-104 * 1.4142135623730951,
}

// lnFolds are folds of ln's output bits over lnEdges and then the first n
// polar-drawn s of lnStream, recorded on amd64 where every one of those
// outputs equals math.Log's (archLog's): an architecture whose ln
// computes anything else fails here.
var lnFolds = map[int]uint64{
	1_000_000:   0xbff50841f2e29864,
	100_000_000: 0x4a626c27d6339313,
}

// lnStream is the generator the drawn inputs come from.
const lnStream = 0x1a7e5

// TestLnIsArchLog holds ln to amd64's math.Log bit for bit, on the edges
// and 10^8 s drawn as polar draws them (10^6 with -short). On amd64 it
// compares every output with math.Log; everywhere it compares the fold of
// the outputs with the one recorded on amd64.
func TestLnIsArchLog(t *testing.T) {
	n := 100_000_000
	if testing.Short() {
		n = 1_000_000
	}
	onAMD64 := runtime.GOARCH == "amd64"
	fold := uint64(0xcbf29ce484222325)
	mismatches := 0
	check := func(s float64) {
		got := math.Float64bits(ln(s))
		if onAMD64 && got != math.Float64bits(math.Log(s)) {
			if mismatches++; mismatches <= 5 {
				t.Errorf("ln(%v) = %v, math.Log = %v", s, ln(s), math.Log(s))
			}
		}
		fold = (fold ^ got) * 0x100000001b3
	}
	for _, s := range lnEdges {
		check(s)
	}
	x := NewXoshiro256(lnStream)
	for i := 0; i < n; {
		u := float64(2*x.Float64()) - 1
		v := float64(2*x.Float64()) - 1
		if s := float64(u*u) + float64(v*v); s < 1 && s != 0 {
			check(s)
			i++
		}
	}
	if mismatches > 0 {
		t.Errorf("%d of %d outputs differ from math.Log", mismatches, n+len(lnEdges))
	}
	if fold != lnFolds[n] {
		t.Errorf("fold of %d outputs = %#x, want %#x", n+len(lnEdges), fold, lnFolds[n])
	}
}
