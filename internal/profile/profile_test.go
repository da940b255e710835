package profile

import (
	"errors"
	"math"
	"testing"

	"hashcore/internal/isa"
)

func validProfile() *Profile {
	return &Profile{
		Name: "test",
		Mix: map[isa.Class]float64{
			isa.ClassIntALU: 0.5,
			isa.ClassIntMul: 0.05,
			isa.ClassFPALU:  0.05,
			isa.ClassLoad:   0.15,
			isa.ClassStore:  0.05,
			isa.ClassBranch: 0.15,
			isa.ClassVector: 0.05,
		},
		BranchTaken:     0.6,
		BranchDataDep:   0.3,
		BranchBias:      0.5,
		MemSequential:   0.25,
		MemStrided:      0.25,
		MemRandom:       0.25,
		MemPointerChase: 0.25,
		WorkingSet:      1 << 20,
		BlockMean:       6,
		BlockStd:        2,
		DepDist:         3,
		TargetDynamic:   100_000,
	}
}

func TestValidateAcceptsGoodProfile(t *testing.T) {
	if err := validProfile().Validate(); err != nil {
		t.Fatalf("valid profile rejected: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Profile)
		wantErr error
	}{
		{"mix does not sum to 1", func(p *Profile) { p.Mix[isa.ClassIntALU] = 0.9 }, ErrBadMix},
		{"negative mix", func(p *Profile) {
			p.Mix[isa.ClassIntALU] = -0.1
			p.Mix[isa.ClassIntMul] = 0.65
		}, ErrBadMix},
		{"branch taken out of range", func(p *Profile) { p.BranchTaken = 1.5 }, ErrBadFraction},
		{"mem fractions do not sum", func(p *Profile) { p.MemRandom = 0.5 }, ErrBadFraction},
		{"working set not pow2", func(p *Profile) { p.WorkingSet = 3000000 }, ErrBadWorkingSet},
		{"working set too small", func(p *Profile) { p.WorkingSet = 1024 }, ErrBadWorkingSet},
		{"block mean tiny", func(p *Profile) { p.BlockMean = 1 }, ErrBadShape},
		{"dep dist zero", func(p *Profile) { p.DepDist = 0 }, ErrBadShape},
		{"target too small", func(p *Profile) { p.TargetDynamic = 10 }, ErrBadShape},
		{"NaN mix", func(p *Profile) { p.Mix[isa.ClassIntALU] = math.NaN() }, ErrBadMix},
		{"NaN branch taken", func(p *Profile) { p.BranchTaken = math.NaN() }, ErrBadFraction},
		{"NaN mem fraction", func(p *Profile) { p.MemRandom = math.NaN() }, ErrBadFraction},
		{"NaN block mean", func(p *Profile) { p.BlockMean = math.NaN() }, ErrBadShape},
		{"NaN block std", func(p *Profile) { p.BlockStd = math.NaN() }, ErrBadShape},
		{"+Inf block std", func(p *Profile) { p.BlockStd = math.Inf(1) }, ErrBadShape},
		{"huge block std", func(p *Profile) { p.BlockStd = 1e300 }, ErrBadShape},
		{"NaN dep dist", func(p *Profile) { p.DepDist = math.NaN() }, ErrBadShape},
		{"+Inf dep dist", func(p *Profile) { p.DepDist = math.Inf(1) }, ErrBadShape},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := validProfile()
			tt.mutate(p)
			if err := p.Validate(); !errors.Is(err, tt.wantErr) {
				t.Errorf("Validate() = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := validProfile()
	q := p.Clone()
	q.Mix[isa.ClassIntALU] = 0.99
	if p.Mix[isa.ClassIntALU] == 0.99 {
		t.Fatal("Clone shares the Mix map")
	}
}
