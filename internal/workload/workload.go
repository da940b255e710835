// Package workload declares the six execution profiles HashCore's widget
// generator can be given, one per stand-in for a SPEC CPU 2017 member.
//
// The paper profiles SPEC CPU 2017 benchmarks (its experiments use the
// Leela integer speed workload) and generates widgets matching the profile.
// SPEC itself is proprietary and its binaries cannot be executed on this
// repository's synthetic machine, so each profile here was measured from a
// small, deterministic reference program written directly in the widget
// ISA, whose execution signature mirrors the qualitative character of a
// SPEC member:
//
//   - leela      (MCTS game search: integer, branchy, hard-to-predict)
//   - mcf        (network simplex: pointer chasing, memory bound)
//   - lbm        (lattice Boltzmann: FP stencil, streaming memory)
//   - x264       (video encode: vector/SAD kernels, strided memory)
//   - deepsjeng  (alpha-beta search: integer, stack traffic, branchy)
//   - exchange2  (recursive puzzle solver: integer, tiny footprint,
//     highly predictable branches)
//
// The declared numbers were obtained by running the profiler over each
// reference program on the Ivy-Bridge-like timing model — the same
// measure-then-generate flow the paper uses with hardware counters. A
// digest depends on the numbers alone, so this package is data: the
// programs live in package refprog, outside the consensus set.
package workload

import (
	"fmt"

	"hashcore/internal/profile"
)

// Workload names a declared profile.
type Workload struct {
	// Name is the short SPEC-like identifier.
	Name string
	// Description says what the workload imitates.
	Description string
	// Profile is the declared execution profile (generator input).
	Profile *profile.Profile
}

// ByName returns the named workload.
func ByName(name string) (Workload, error) {
	for _, w := range All() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("workload: unknown workload %q (have %v)", name, Names())
}

// Names returns all workload names in sorted order.
func Names() []string {
	var names []string
	for _, w := range All() {
		names = append(names, w.Name)
	}
	return names
}
