package experiments

import (
	"testing"

	"hashcore/internal/perfprox"
	"hashcore/internal/uarch"
	"hashcore/internal/vm"
	"hashcore/internal/workload"
)

// TestDiagnosticCacheBehaviour logs the full memory/branch picture for the
// reference workload and one widget, to keep the calibration honest.
func TestDiagnosticCacheBehaviour(t *testing.T) {
	w, err := workload.ByName("leela")
	if err != nil {
		t.Fatal(err)
	}
	refProg, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := uarch.Measure("leela", refProg, uarch.IvyBridge(), vm.Params{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("ref:    ipc=%.3f acc=%.3f mpki=%.1f L1D=%.3f L2=%.3f L3=%.3f L1I=%.3f dyn=%d",
		ref.IPC, ref.BranchAccuracy, ref.MPKI, ref.L1DHitRate, ref.L2HitRate, ref.L3HitRate, ref.L1IHitRate, ref.DynamicInstructions)

	gen, err := perfprox.NewGenerator(w.Profile, perfprox.Params{})
	if err != nil {
		t.Fatal(err)
	}
	var seed perfprox.Seed
	seed[5] = 9
	wp, err := gen.Generate(seed)
	if err != nil {
		t.Fatal(err)
	}
	wr, err := uarch.Measure("widget", wp, uarch.IvyBridge(), vm.Params{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("widget: ipc=%.3f acc=%.3f mpki=%.1f L1D=%.3f L2=%.3f L3=%.3f L1I=%.3f dyn=%d",
		wr.IPC, wr.BranchAccuracy, wr.MPKI, wr.L1DHitRate, wr.L2HitRate, wr.L3HitRate, wr.L1IHitRate, wr.DynamicInstructions)
	t.Logf("widget mix: %v", wr.Mix)
}
