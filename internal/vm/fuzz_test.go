package vm_test

// Property and fuzz tests for the fused, block-batched fast loop: for
// arbitrary generated widgets and arbitrary budget/snapshot parameters it
// must retire exactly the Result the per-instruction reference step does
// on its own (an observer attached sends every block through it, over the
// program's own code) — output bytes, retired count, truncation flag and
// snapshot count. Programs that halt exactly on a budget or snapshot
// boundary are probed explicitly: those are the cases the fast loop's
// hand-over to the reference step exists for. The generators and
// parameter pickers here serve FuzzEnginesVsDense as well.

import (
	"bytes"
	"testing"

	"hashcore/internal/perfprox"
	"hashcore/internal/rng"
	"hashcore/internal/vm"
	"hashcore/internal/workload"
)

// fuzzGenerator builds a generator over a shrunken leela-style profile so
// each fuzz execution retires a few thousand instructions, not 150k.
func fuzzGenerator(tb testing.TB) *perfprox.Generator {
	tb.Helper()
	w, err := workload.ByName("leela")
	if err != nil {
		tb.Fatal(err)
	}
	p := w.Profile.Clone()
	p.TargetDynamic = 4096
	p.WorkingSet = 1 << 15
	gen, err := perfprox.NewGenerator(p, perfprox.Params{LoopTrips: 4})
	if err != nil {
		tb.Fatal(err)
	}
	return gen
}

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

// checkFusedMatchesUnfused runs p under the fast loop and under the
// reference step alone with params and fails the test on any divergence.
func checkFusedMatchesUnfused(t *testing.T, m *vm.Machine, params vm.Params) (fused vm.Result) {
	t.Helper()
	var unfused vm.Result
	m.RunInto(params, nil, &fused)
	m.RunInto(params, &nullObserver{}, &unfused)
	if !bytes.Equal(fused.Output, unfused.Output) {
		t.Fatalf("params %+v: fused/unfused outputs differ (%d vs %d bytes)",
			params, len(fused.Output), len(unfused.Output))
	}
	if fused.Retired != unfused.Retired || fused.Truncated != unfused.Truncated ||
		fused.Snapshots != unfused.Snapshots {
		t.Fatalf("params %+v: result metadata diverged:\n fused   %+v\n unfused %+v",
			params, fused, unfused)
	}
	return fused
}

// TestFusedMatchesUnfusedOnBoundaries sweeps generated widgets through
// budgets and snapshot intervals that land exactly on, one before and one
// after the program's natural retirement — plus intervals that divide it —
// locking the hand-over to the reference step bit-for-bit.
func TestFusedMatchesUnfusedOnBoundaries(t *testing.T) {
	for _, name := range []string{"leela", "lbm"} {
		gen := fullProfileGenerator(t, name)
		for i := uint64(0); i < 4; i++ {
			p, err := gen.Generate(seedFromWords(i, 0xabcd))
			if err != nil {
				t.Fatal(err)
			}
			m, err := vm.New(p)
			if err != nil {
				t.Fatal(err)
			}
			natural := checkFusedMatchesUnfused(t, m, vm.Params{}).Retired

			budgets := []uint64{natural, natural - 1, natural + 1, natural / 2, natural/3 + 1, 1, 2}
			for _, b := range budgets {
				if b == 0 {
					continue
				}
				checkFusedMatchesUnfused(t, m, vm.Params{MaxInstructions: b})
			}
			intervals := []uint64{1, 2, 3, 7, natural - 1, natural, 64}
			for _, iv := range intervals {
				if iv == 0 {
					continue
				}
				checkFusedMatchesUnfused(t, m, vm.Params{SnapshotInterval: iv})
				// Budget AND snapshot boundaries interacting in one run.
				checkFusedMatchesUnfused(t, m, vm.Params{SnapshotInterval: iv, MaxInstructions: natural - 1})
			}
		}
	}
}

// FuzzFusedVsUnfused generates a widget from fuzzed seed material and
// executes it under fuzzed budget/snapshot parameters through the fast
// loop and through the reference step alone.
func FuzzFusedVsUnfused(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint16(0), uint8(0))
	f.Add(uint64(3), uint64(4), uint16(1), uint8(1))
	f.Add(uint64(0xdead), uint64(0xbeef), uint16(2048), uint8(3))
	f.Add(uint64(42), uint64(1<<40), uint16(13), uint8(7))

	gen := fuzzGenerator(f)
	f.Fuzz(func(t *testing.T, seedLo, seedHi uint64, snapRaw uint16, budgetSel uint8) {
		p, err := gen.Generate(seedFromWords(seedLo, seedHi))
		if err != nil {
			t.Skip() // infeasible parameter corner, not an execution bug
		}
		m, err := vm.New(p)
		if err != nil {
			t.Fatalf("generated program failed validation: %v", err)
		}
		params := vm.Params{SnapshotInterval: uint64(snapRaw)}
		natural := checkFusedMatchesUnfused(t, m, params).Retired

		params.MaxInstructions = boundaryBudget(budgetSel, natural)
		checkFusedMatchesUnfused(t, m, params)
	})
}
