package uarch

import (
	"fmt"
	"math"

	"hashcore/internal/isa"
	"hashcore/internal/prog"
	"hashcore/internal/vm"
)

// Report is the measured execution signature of one run: the quantities
// the paper reads from performance counters. Reports derive profiles and
// compare widgets against their reference workload (Figures 2 and 3).
type Report struct {
	Name string

	// Functional measurements (from the VM).
	DynamicInstructions uint64
	Mix                 map[isa.Class]float64
	BranchTaken         float64
	OutputBytes         int
	Truncated           bool

	// Timing measurements (from the timing core).
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
func Measure(name string, p *prog.Program, cfg Config, params vm.Params) (*Report, error) {
	metrics, res, err := MeasureProgram(p, cfg, params)
	if err != nil {
		return nil, fmt.Errorf("uarch: measuring %s: %w", name, err)
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
		return nil, fmt.Errorf("uarch: measuring %s: %w", name, err)
	}
	m := Metrics{
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
func buildReport(name string, m Metrics, res *vm.Result) *Report {
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
