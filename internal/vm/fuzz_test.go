package vm_test

// The widget sources and parameter pickers of the differential tests:
// FuzzEnginesVsDense and its fixed sweep TestSparseVsDenseOnProfiles
// (sparse_test.go) draw widgets from shrunken profiles, seeded from
// fuzzed or fixed words, and run them under budgets that land on the
// edges of a widget's natural retirement, where the fast engines hand
// boundary blocks to the per-instruction reference step.

import (
	"testing"

	"hashcore/internal/perfprox"
	"hashcore/internal/rng"
	"hashcore/internal/workload"
)

// fullProfileGenerator builds a generator over a shrunken copy of a
// workload family (int, fp, vector), so each execution retires a few
// thousand instructions, not 150k, and FP and vector fused opcodes appear
// in generated code too.
func fullProfileGenerator(tb testing.TB, name string) *perfprox.Generator {
	tb.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	p := w.Profile.Clone()
	p.TargetDynamic = 4096
	if p.WorkingSet > 1<<15 {
		p.WorkingSet = 1 << 15
	}
	gen, err := perfprox.NewGenerator(p, perfprox.Params{LoopTrips: 4})
	if err != nil {
		tb.Fatal(err)
	}
	return gen
}

func seedFromWords(lo, hi uint64) perfprox.Seed {
	var s perfprox.Seed
	sm := rng.NewSplitMix64(lo ^ hi*0x9e3779b97f4a7c15)
	for i := 0; i < len(s); i += 8 {
		v := sm.Next()
		for j := 0; j < 8; j++ {
			s[i+j] = byte(v >> (8 * j))
		}
	}
	return s
}

// boundaryBudget picks an instruction budget near an interesting edge of a
// run that retires natural instructions without one.
func boundaryBudget(sel uint8, natural uint64) uint64 {
	switch sel % 8 {
	case 1:
		return natural
	case 2:
		return natural - 1
	case 3:
		return natural + 1
	case 4:
		return natural/2 + 1
	case 5:
		return 1
	case 6:
		return 2
	case 7:
		return natural/3 + 1
	}
	return 0 // the default budget
}
