// Package profile defines performance profiles — the input to inverted
// benchmarking — and a profiler that measures them from executions.
//
// The paper's widget generator is a modified PerfProx: it takes a
// performance profile of a reference workload (the paper profiles SPEC CPU
// 2017's Leela with hardware counters: "instruction mix, branch behavior,
// memory access patterns, and data dependencies") and synthesizes programs
// matching that profile. Profile is the Go representation of that input;
// Report is what the profiler measures back from a run, used both to
// derive profiles and to compare widgets against their reference workload
// (Figures 2 and 3).
package profile

import (
	"errors"
	"fmt"
	"math"

	"hashcore/internal/isa"
	"hashcore/internal/prog"
	"hashcore/internal/uarch"
	"hashcore/internal/vm"
)

// Profile is the target execution signature handed to the widget
// generator.
type Profile struct {
	// Name identifies the reference workload (e.g. "leela").
	Name string

	// Mix is the dynamic instruction mix over isa.Classes; fractions
	// should sum to 1 (Normalize enforces this).
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

	// Memory access pattern fractions (should sum to 1 over the four).
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

// Validate checks the profile is usable by the generator.
func (p *Profile) Validate() error {
	var sum float64
	for _, class := range isa.Classes {
		f := p.Mix[class]
		if f < 0 || f > 1 {
			return fmt.Errorf("%w: %s = %v", ErrBadMix, class, f)
		}
		sum += f
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("%w: sum = %v", ErrBadMix, sum)
	}
	for name, f := range map[string]float64{
		"BranchTaken":   p.BranchTaken,
		"BranchDataDep": p.BranchDataDep,
		"BranchBias":    p.BranchBias,
	} {
		if f < 0 || f > 1 {
			return fmt.Errorf("%w: %s = %v", ErrBadFraction, name, f)
		}
	}
	memSum := p.MemSequential + p.MemStrided + p.MemRandom + p.MemPointerChase
	if math.Abs(memSum-1) > 1e-6 {
		return fmt.Errorf("%w: memory pattern sum = %v", ErrBadFraction, memSum)
	}
	for _, f := range []float64{p.MemSequential, p.MemStrided, p.MemRandom, p.MemPointerChase} {
		if f < 0 || f > 1 {
			return fmt.Errorf("%w: memory pattern fraction %v", ErrBadFraction, f)
		}
	}
	ws := p.WorkingSet
	if ws < prog.MinMemSize || ws > prog.MaxMemSize || ws&(ws-1) != 0 {
		return fmt.Errorf("%w: %d", ErrBadWorkingSet, ws)
	}
	if p.BlockMean < 2 || p.BlockMean > 1000 || p.BlockStd < 0 {
		return fmt.Errorf("%w: block mean/std %v/%v", ErrBadShape, p.BlockMean, p.BlockStd)
	}
	if p.DepDist < 1 {
		return fmt.Errorf("%w: dependency distance %v", ErrBadShape, p.DepDist)
	}
	if p.TargetDynamic < 1000 || p.TargetDynamic > 1<<26 {
		return fmt.Errorf("%w: target dynamic %d", ErrBadShape, p.TargetDynamic)
	}
	return nil
}

// Normalize scales the instruction-mix and memory-pattern fractions to sum
// to 1 (no-op for empty mixes).
func (p *Profile) Normalize() {
	var sum float64
	for _, f := range p.Mix {
		sum += f
	}
	if sum > 0 {
		for c, f := range p.Mix {
			p.Mix[c] = f / sum
		}
	}
	memSum := p.MemSequential + p.MemStrided + p.MemRandom + p.MemPointerChase
	if memSum > 0 {
		p.MemSequential /= memSum
		p.MemStrided /= memSum
		p.MemRandom /= memSum
		p.MemPointerChase /= memSum
	}
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

// Report is the measured execution signature of one run: the quantities
// the paper reads from performance counters.
type Report struct {
	Name string

	// Functional measurements (from the VM).
	DynamicInstructions uint64
	Mix                 map[isa.Class]float64
	BranchTaken         float64
	OutputBytes         int
	Truncated           bool

	// Timing measurements (from the uarch model).
	IPC            float64
	Cycles         float64
	BranchAccuracy float64
	MPKI           float64
	L1DHitRate     float64
	L2HitRate      float64
	L3HitRate      float64
	L1IHitRate     float64
}

// Counter is the smallest observer a profile can be measured with: it
// counts retired instructions per class, and conditional branches retired
// and taken. The VM counts none of this itself (vm.Result); a run with a
// Counter attached is the reference step, which tells it of every
// retirement.
type Counter struct {
	Classes                     [isa.NumClasses]uint64
	CondBranches, TakenBranches uint64
}

var _ vm.Observer = (*Counter)(nil)

// OnRetire counts one retired instruction.
func (c *Counter) OnRetire(ev *vm.Event) {
	c.Classes[ev.Class]++
	if ev.Op.IsCondBranch() {
		c.CondBranches++
		if ev.Taken {
			c.TakenBranches++
		}
	}
}

// Measure executes p on a fresh VM attached to a fresh timing core and
// returns the measured report; the core counts the mix and the branches.
func Measure(name string, p *prog.Program, cfg uarch.Config, params vm.Params) (*Report, error) {
	metrics, res, err := uarch.MeasureProgram(p, cfg, params)
	if err != nil {
		return nil, fmt.Errorf("profile: measuring %s: %w", name, err)
	}
	return buildReport(name, metrics, res), nil
}

// MeasureFunctional executes p on the VM with only a Counter attached (no
// timing model); timing fields of the report are zero. It is much faster
// and sufficient for mix and branch-behaviour measurements.
func MeasureFunctional(name string, p *prog.Program, params vm.Params) (*Report, error) {
	var c Counter
	res, err := vm.Run(p, params, &c)
	if err != nil {
		return nil, fmt.Errorf("profile: measuring %s: %w", name, err)
	}
	m := uarch.Metrics{
		CondBranches:  c.CondBranches,
		TakenBranches: c.TakenBranches,
		ClassCounts:   make(map[isa.Class]uint64, len(isa.Classes)),
	}
	for _, class := range isa.Classes {
		m.ClassCounts[class] = c.Classes[class]
	}
	return buildReport(name, m, res), nil
}

// buildReport reads the mix and the branches from m's counts and the
// timing fields from the rest of m (zero when no timing model ran).
func buildReport(name string, m uarch.Metrics, res *vm.Result) *Report {
	r := &Report{
		Name:                name,
		DynamicInstructions: res.Retired,
		Mix:                 make(map[isa.Class]float64, len(isa.Classes)),
		OutputBytes:         len(res.Output),
		Truncated:           res.Truncated,
		IPC:                 m.IPC,
		Cycles:              m.Cycles,
		BranchAccuracy:      m.BranchAccuracy,
		MPKI:                m.MPKI,
		L1DHitRate:          m.L1DHitRate,
		L2HitRate:           m.L2HitRate,
		L3HitRate:           m.L3HitRate,
		L1IHitRate:          m.L1IHitRate,
	}
	if res.Retired > 0 {
		for _, class := range isa.Classes {
			r.Mix[class] = float64(m.ClassCounts[class]) / float64(res.Retired)
		}
	}
	if m.CondBranches > 0 {
		r.BranchTaken = float64(m.TakenBranches) / float64(m.CondBranches)
	}
	return r
}

// MixDistance returns the L1 distance between two instruction mixes
// (0 = identical, 2 = disjoint). Used by tests and the experiment harness
// to quantify how closely widgets match their target profile.
func MixDistance(a, b map[isa.Class]float64) float64 {
	var d float64
	for _, class := range isa.Classes {
		d += math.Abs(a[class] - b[class])
	}
	return d
}
