package selection

import (
	"testing"

	"hashcore/internal/isa"
	"hashcore/internal/perfprox"
	"hashcore/internal/profile"
)

func tinyProfile() *profile.Profile {
	return &profile.Profile{
		Name: "tiny",
		Mix: map[isa.Class]float64{
			isa.ClassIntALU: 0.6,
			isa.ClassIntMul: 0.05,
			isa.ClassFPALU:  0.05,
			isa.ClassLoad:   0.1,
			isa.ClassStore:  0.05,
			isa.ClassBranch: 0.15,
		},
		BranchTaken: 0.6, BranchDataDep: 0.3, BranchBias: 0.5,
		MemSequential: 0.5, MemStrided: 0.2, MemRandom: 0.2, MemPointerChase: 0.1,
		WorkingSet: 4 << 10, BlockMean: 5, BlockStd: 2, DepDist: 3,
		TargetDynamic: 2000,
	}
}

func newPool(t testing.TB, size int) *Pool {
	t.Helper()
	p, err := NewPool(tinyProfile(), size, 42)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPoolConstruction(t *testing.T) {
	p := newPool(t, 8)
	if p.Size() != 8 {
		t.Errorf("Size = %d", p.Size())
	}
	if p.StorageBytes() == 0 {
		t.Error("no storage accounted")
	}
	if p.Name() != "hashcore-select" {
		t.Errorf("Name = %q", p.Name())
	}
}

func TestPoolDeterministicConstruction(t *testing.T) {
	a := newPool(t, 4)
	b := newPool(t, 4)
	if a.StorageBytes() != b.StorageBytes() {
		t.Fatal("same master seed built different pools")
	}
}

func TestPoolSizeValidation(t *testing.T) {
	if _, err := NewPool(tinyProfile(), 0, 1); err == nil {
		t.Error("zero pool accepted")
	}
	bad := tinyProfile()
	bad.TargetDynamic = 1
	if _, err := NewPool(bad, 2, 1); err == nil {
		t.Error("invalid profile accepted")
	}
}

func TestSelectionSpreadsOverPool(t *testing.T) {
	p := newPool(t, 4)
	counts := make([]int, 4)
	for i := 0; i < 64; i++ {
		var seed perfprox.Seed
		seed[0] = byte(i)
		seed[3] = byte(i * 7)
		counts[p.Select(seed)]++
	}
	for i, c := range counts {
		if c == 0 {
			t.Errorf("pool entry %d never selected", i)
		}
	}
}

func TestHashDeterministicAndSeedSensitive(t *testing.T) {
	p := newPool(t, 4)
	a, err := p.Hash([]byte("block"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Hash([]byte("block"))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("selection hash nondeterministic")
	}
	c, err := p.Hash([]byte("block2"))
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatal("distinct headers collided")
	}
}

// TestSeedDependentExecution: two headers that select the same widget must
// still produce different digests, because the seed reinitializes the
// widget's memory (otherwise pool outputs would be precomputable).
func TestSeedDependentExecution(t *testing.T) {
	p := newPool(t, 1) // every seed selects widget 0
	a, err := p.Hash([]byte("h1"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Hash([]byte("h2"))
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("same widget, different seeds produced identical digests")
	}
}
