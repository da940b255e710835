// Package profile defines performance profiles — the input to inverted
// benchmarking.
//
// The paper's widget generator is a modified PerfProx: it takes a
// performance profile of a reference workload (the paper profiles SPEC CPU
// 2017's Leela with hardware counters: "instruction mix, branch behavior,
// memory access patterns, and data dependencies") and synthesizes programs
// matching that profile. Profile is the Go representation of that input.
// It shapes every digest, so this package is consensus code and imports
// only isa and prog; measuring a run back into a report (Figures 2 and 3)
// is internal/uarch's job.
package profile

import (
	"errors"
	"fmt"
	"math"

	"hashcore/internal/isa"
	"hashcore/internal/prog"
)

// Profile is the target execution signature handed to the widget
// generator.
type Profile struct {
	// Name identifies the reference workload (e.g. "leela").
	Name string

	// Mix is the dynamic instruction mix over isa.Classes; fractions
	// must sum to 1 (Validate checks this).
	Mix map[isa.Class]float64

	// BranchTaken is the fraction of conditional branches that are taken.
	BranchTaken float64
	// BranchDataDep is the fraction of conditional branches whose outcome
	// depends on loaded data (hard to predict); the remainder are
	// loop-closing or pattern branches (easy to predict).
	BranchDataDep float64
	// BranchBias is P(taken) for data-dependent branches; 0.5 is a coin
	// flip (maximally unpredictable).
	BranchBias float64

	// Memory access pattern fractions (must sum to 1 over the four).
	MemSequential   float64
	MemStrided      float64
	MemRandom       float64
	MemPointerChase float64
	// WorkingSet is the scratch-memory size in bytes (power of two).
	WorkingSet int

	// BlockMean/BlockStd describe the basic-block size distribution.
	BlockMean float64
	BlockStd  float64
	// DepDist is the mean register-dependency distance in instructions
	// (small = long serial chains, large = high ILP).
	DepDist float64

	// TargetDynamic is the dynamic instruction budget for one widget.
	TargetDynamic int
}

// Validation errors.
var (
	ErrBadMix        = errors.New("profile: instruction mix fractions invalid")
	ErrBadFraction   = errors.New("profile: fraction outside [0,1]")
	ErrBadWorkingSet = errors.New("profile: working set must be a power of two within prog limits")
	ErrBadShape      = errors.New("profile: structural parameter out of range")
)

// Validate checks the profile is usable by the generator. Every range
// check is written as !(in range), so NaN, which compares false with
// everything, fails it; the generator turns these floats into integers,
// and Go leaves the conversion of NaN or an out-of-range value
// implementation-defined, which would let a digest differ by platform.
func (p *Profile) Validate() error {
	var sum float64
	for _, class := range isa.Classes {
		f := p.Mix[class]
		if !(f >= 0 && f <= 1) {
			return fmt.Errorf("%w: %s = %v", ErrBadMix, class, f)
		}
		sum += f
	}
	if !(math.Abs(sum-1) <= 1e-6) {
		return fmt.Errorf("%w: sum = %v", ErrBadMix, sum)
	}
	for _, fr := range []struct {
		name string
		f    float64
	}{
		{"BranchTaken", p.BranchTaken},
		{"BranchDataDep", p.BranchDataDep},
		{"BranchBias", p.BranchBias},
		{"MemSequential", p.MemSequential},
		{"MemStrided", p.MemStrided},
		{"MemRandom", p.MemRandom},
		{"MemPointerChase", p.MemPointerChase},
	} {
		if !(fr.f >= 0 && fr.f <= 1) {
			return fmt.Errorf("%w: %s = %v", ErrBadFraction, fr.name, fr.f)
		}
	}
	memSum := p.MemSequential + p.MemStrided + p.MemRandom + p.MemPointerChase
	if !(math.Abs(memSum-1) <= 1e-6) {
		return fmt.Errorf("%w: memory pattern sum = %v", ErrBadFraction, memSum)
	}
	ws := p.WorkingSet
	if ws < prog.MinMemSize || ws > prog.MaxMemSize || ws&(ws-1) != 0 {
		return fmt.Errorf("%w: %d", ErrBadWorkingSet, ws)
	}
	if !(p.BlockMean >= 2 && p.BlockMean <= 1000) || !(p.BlockStd >= 0 && p.BlockStd <= 1000) {
		return fmt.Errorf("%w: block mean/std %v/%v", ErrBadShape, p.BlockMean, p.BlockStd)
	}
	if !(p.DepDist >= 1) || math.IsInf(p.DepDist, 1) {
		return fmt.Errorf("%w: dependency distance %v", ErrBadShape, p.DepDist)
	}
	if p.TargetDynamic < 1000 || p.TargetDynamic > 1<<26 {
		return fmt.Errorf("%w: target dynamic %d", ErrBadShape, p.TargetDynamic)
	}
	return nil
}

// Clone returns a deep copy (the Mix map is not shared).
func (p *Profile) Clone() *Profile {
	q := *p
	q.Mix = make(map[isa.Class]float64, len(p.Mix))
	for c, f := range p.Mix {
		q.Mix[c] = f
	}
	return &q
}
