package rng

import (
	"testing"
	"testing/quick"
)

// TestSplitMix64ReferenceVector checks the first outputs for seed 0 against
// the published reference implementation (Vigna's splitmix64.c, also the
// basis of Java's SplittableRandom).
func TestSplitMix64ReferenceVector(t *testing.T) {
	sm := NewSplitMix64(0)
	want := []uint64{
		0xe220a8397b1dcdaf,
		0x6e789e6aa1b965f4,
		0x06c45d188009454f,
	}
	for i, w := range want {
		if got := sm.Next(); got != w {
			t.Fatalf("SplitMix64(seed=0) output %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestSplitMix64Deterministic(t *testing.T) {
	a, b := NewSplitMix64(42), NewSplitMix64(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Next(), b.Next(); av != bv {
			t.Fatalf("streams diverged at step %d: %#x vs %#x", i, av, bv)
		}
	}
}

func TestSplitMix64DistinctSeedsDiverge(t *testing.T) {
	a, b := NewSplitMix64(1), NewSplitMix64(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Next() == b.Next() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical outputs in 64 draws", same)
	}
}

func TestXoshiroDeterministic(t *testing.T) {
	a, b := NewXoshiro256(7), NewXoshiro256(7)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Next(), b.Next(); av != bv {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestXoshiroZeroSeedValid(t *testing.T) {
	x := NewXoshiro256(0)
	var orAll uint64
	for i := 0; i < 100; i++ {
		orAll |= x.Next()
	}
	if orAll == 0 {
		t.Fatal("xoshiro256 with seed 0 produced all-zero outputs")
	}
}

func TestIntnInRange(t *testing.T) {
	check := func(seed uint64, n uint16) bool {
		bound := int(n%1000) + 1
		x := NewXoshiro256(seed)
		for i := 0; i < 50; i++ {
			v := x.Intn(bound)
			if v < 0 || v >= bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnUniformityRough(t *testing.T) {
	x := NewXoshiro256(99)
	const buckets, draws = 10, 100000
	var counts [buckets]int
	for i := 0; i < draws; i++ {
		counts[x.Intn(buckets)]++
	}
	want := draws / buckets
	for i, c := range counts {
		if c < want*9/10 || c > want*11/10 {
			t.Errorf("bucket %d count %d is more than 10%% from expected %d", i, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewXoshiro256(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	x := NewXoshiro256(5)
	for i := 0; i < 10000; i++ {
		f := x.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	x := NewXoshiro256(11)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := x.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if mean < -0.02 || mean > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if variance < 0.95 || variance > 1.05 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestPickRespectsWeights(t *testing.T) {
	x := NewXoshiro256(3)
	weights := []float64{1, 0, 3}
	var counts [3]int
	const draws = 60000
	for i := 0; i < draws; i++ {
		counts[x.Pick(weights)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight bucket selected %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.7 || ratio > 3.3 {
		t.Errorf("weight-3 / weight-1 selection ratio = %v, want ~3", ratio)
	}
}

func TestPickAllZeroWeights(t *testing.T) {
	x := NewXoshiro256(3)
	if got := x.Pick([]float64{0, 0, 0}); got != 0 {
		t.Errorf("Pick(all-zero) = %d, want 0", got)
	}
	if got := x.Pick([]float64{-1, -2}); got != 0 {
		t.Errorf("Pick(all-negative) = %d, want 0", got)
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	x := NewXoshiro256(8)
	const n = 100
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	x.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	seen := make(map[int]bool, n)
	for _, v := range perm {
		if v < 0 || v >= n || seen[v] {
			t.Fatalf("shuffle output is not a permutation: element %d", v)
		}
		seen[v] = true
	}
}

func TestMul128(t *testing.T) {
	tests := []struct {
		a, b   uint64
		hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{1 << 32, 1 << 32, 1, 0},
		{^uint64(0), ^uint64(0), 0xfffffffffffffffe, 1},
		{0x123456789abcdef0, 2, 0, 0x2468acf13579bde0},
	}
	for _, tt := range tests {
		hi, lo := mul128(tt.a, tt.b)
		if hi != tt.hi || lo != tt.lo {
			t.Errorf("mul128(%#x, %#x) = (%#x, %#x), want (%#x, %#x)",
				tt.a, tt.b, hi, lo, tt.hi, tt.lo)
		}
	}
}

func BenchmarkXoshiroNext(b *testing.B) {
	x := NewXoshiro256(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= x.Next()
	}
	_ = sink
}

func TestSplitMix64AtMatchesSequential(t *testing.T) {
	for _, seed := range []uint64{0, 1, 0xdeadbeef, ^uint64(0)} {
		sm := NewSplitMix64(seed)
		for i := uint64(0); i < 100; i++ {
			want := sm.Next()
			if got := SplitMix64At(seed, i); got != want {
				t.Fatalf("seed %#x: SplitMix64At(%d) = %#x, want %#x", seed, i, got, want)
			}
		}
	}
}
