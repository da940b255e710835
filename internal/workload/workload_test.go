package workload

import (
	"bytes"
	"math"
	"testing"

	"hashcore/internal/isa"
	"hashcore/internal/uarch"
	"hashcore/internal/vm"
)

func TestNamesAndRegistry(t *testing.T) {
	names := Names()
	want := []string{"deepsjeng", "exchange2", "lbm", "leela", "mcf", "x264"}
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("Names()[%d] = %q, want %q", i, names[i], want[i])
		}
	}
	if len(All()) != len(want) {
		t.Errorf("All() returned %d workloads", len(All()))
	}
	if _, err := ByName("leela"); err != nil {
		t.Errorf("ByName(leela): %v", err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName(nope) should fail")
	}
}

func TestAllWorkloadsBuildAndValidate(t *testing.T) {
	for _, w := range All() {
		t.Run(w.Name, func(t *testing.T) {
			p, err := w.Build()
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			if err := p.Validate(); err != nil {
				t.Fatalf("validate: %v", err)
			}
			if w.Description == "" {
				t.Error("missing description")
			}
		})
	}
}

func TestDeclaredProfilesValid(t *testing.T) {
	for _, w := range All() {
		t.Run(w.Name, func(t *testing.T) {
			if err := w.Profile.Validate(); err != nil {
				t.Errorf("declared profile invalid: %v", err)
			}
			if w.Profile.Name != w.Name {
				t.Errorf("profile name %q != workload name %q", w.Profile.Name, w.Name)
			}
		})
	}
}

// TestMeasuredSignatureMatchesDeclared is the calibration check: the
// declared profile (the generator's input) must match what the profiler
// actually measures from the reference program, the same way the paper's
// profiles come from counters. Logged values are the calibration data.
func TestMeasuredSignatureMatchesDeclared(t *testing.T) {
	for _, w := range All() {
		t.Run(w.Name, func(t *testing.T) {
			p, err := w.Build()
			if err != nil {
				t.Fatal(err)
			}
			r, err := uarch.MeasureFunctional(w.Name, p, vm.Params{})
			if err != nil {
				t.Fatal(err)
			}
			if r.Truncated {
				t.Fatal("workload hit the instruction budget")
			}
			t.Logf("%s: dyn=%d taken=%.3f mix: alu=%.3f mul=%.3f fp=%.3f ld=%.3f st=%.3f br=%.3f vec=%.3f",
				w.Name, r.DynamicInstructions, r.BranchTaken,
				r.Mix[isa.ClassIntALU], r.Mix[isa.ClassIntMul], r.Mix[isa.ClassFPALU],
				r.Mix[isa.ClassLoad], r.Mix[isa.ClassStore], r.Mix[isa.ClassBranch],
				r.Mix[isa.ClassVector])

			if d := uarch.MixDistance(r.Mix, w.Profile.Mix); d > 0.10 {
				t.Errorf("mix distance measured-vs-declared = %.3f, want <= 0.10", d)
			}
			if diff := math.Abs(r.BranchTaken - w.Profile.BranchTaken); diff > 0.10 {
				t.Errorf("branch taken rate: measured %.3f vs declared %.3f",
					r.BranchTaken, w.Profile.BranchTaken)
			}
			// Dynamic length within 2x of the declared generator target.
			ratio := float64(r.DynamicInstructions) / float64(w.Profile.TargetDynamic)
			if ratio < 0.5 || ratio > 2 {
				t.Errorf("dynamic length %d is %0.2fx the declared target %d",
					r.DynamicInstructions, ratio, w.Profile.TargetDynamic)
			}
		})
	}
}

func TestWorkloadsAreDeterministic(t *testing.T) {
	for _, w := range All() {
		t.Run(w.Name, func(t *testing.T) {
			p, err := w.Build()
			if err != nil {
				t.Fatal(err)
			}
			a, err := vm.Run(p, vm.Params{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			b, err := vm.Run(p, vm.Params{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Output, b.Output) {
				t.Error("two runs produced different output")
			}
			if len(a.Output) == 0 {
				t.Error("no output produced")
			}
		})
	}
}

func TestWorkloadsProduceDistinctOutputs(t *testing.T) {
	seen := make(map[string]string)
	for _, w := range All() {
		p, err := w.Build()
		if err != nil {
			t.Fatal(err)
		}
		res, err := vm.Run(p, vm.Params{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		key := string(res.Output[:64])
		if prev, ok := seen[key]; ok {
			t.Errorf("workloads %s and %s share an output prefix", prev, w.Name)
		}
		seen[key] = w.Name
	}
}
