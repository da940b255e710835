// Package refprog holds the six reference programs the workload profiles
// were measured from, and the Builder they are written with.
//
// Each program is a small, deterministic program written directly in the
// widget ISA whose execution signature mirrors the qualitative character
// of a SPEC CPU 2017 member (see package workload). The profiler measured
// each one on the Ivy-Bridge-like timing model, and the numbers it found
// are the declared profiles — the paper's measure-then-generate flow, with
// the timing model standing in for hardware counters. A digest depends on
// those numbers only, never on the programs, so this package sits outside
// the consensus set: the experiment harness runs the programs beside the
// widgets (Figures 2–3), and the workload tests hold the declared tables
// to what the programs measure.
package refprog

import (
	"hashcore/internal/prog"
	"hashcore/internal/workload"
)

// programs writes each workload's reference program into a Builder with
// the given scratch-memory size.
var programs = map[string]func(memSize int) *Builder{
	"leela":     leela,
	"mcf":       mcf,
	"lbm":       lbm,
	"x264":      x264,
	"deepsjeng": deepsjeng,
	"exchange2": exchange2,
}

// Build returns the named workload's reference program, its scratch
// memory the size of the workload's declared working set.
func Build(name string) (*prog.Program, error) {
	w, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	return programs[name](w.Profile.WorkingSet).Build()
}
