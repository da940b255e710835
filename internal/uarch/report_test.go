package uarch

import (
	"testing"

	"hashcore/internal/isa"
	"hashcore/internal/prog"
	"hashcore/internal/vm"
	"hashcore/internal/workload/refprog"
)

func TestMixDistance(t *testing.T) {
	a := map[isa.Class]float64{isa.ClassIntALU: 1}
	b := map[isa.Class]float64{isa.ClassBranch: 1}
	if d := MixDistance(a, a); d != 0 {
		t.Errorf("distance(a,a) = %v, want 0", d)
	}
	if d := MixDistance(a, b); d != 2 {
		t.Errorf("distance(disjoint) = %v, want 2", d)
	}
}

func reportProgram(t *testing.T) *prog.Program {
	t.Helper()
	b := refprog.NewBuilder(prog.MinMemSize, 1)
	entry := b.NewBlock()
	loop := b.NewBlock()
	exit := b.NewBlock()
	b.SetBlock(entry)
	b.MovI(15, 100)
	b.MovI(14, 0)
	b.Jmp(loop)
	b.SetBlock(loop)
	b.Load(1, 15, 0)
	b.Op3(isa.OpAdd, 2, 2, 1)
	b.AddI(15, 15, -1)
	b.Branch(isa.OpBne, 15, 14, loop)
	b.SetBlock(exit)
	b.Halt()
	return b.MustBuild()
}

func TestMeasureFunctional(t *testing.T) {
	r, err := MeasureFunctional("t", reportProgram(t), vm.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if r.DynamicInstructions == 0 {
		t.Fatal("no instructions measured")
	}
	if r.IPC != 0 {
		t.Error("functional measurement should not report IPC")
	}
	if r.Mix[isa.ClassLoad] == 0 {
		t.Error("load fraction missing from mix")
	}
	if r.BranchTaken <= 0.9 {
		t.Errorf("loop branch taken rate = %v, want ~0.99", r.BranchTaken)
	}
	var sum float64
	for _, class := range isa.Classes {
		sum += r.Mix[class]
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("measured mix sums to %v, want 1", sum)
	}
}

func TestMeasureWithTiming(t *testing.T) {
	r, err := Measure("t", reportProgram(t), IvyBridge(), vm.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if r.IPC <= 0 {
		t.Error("timing measurement missing IPC")
	}
	if r.Cycles <= 0 {
		t.Error("timing measurement missing cycles")
	}
	if r.BranchAccuracy <= 0 {
		t.Error("timing measurement missing branch accuracy")
	}
}

func TestMeasureRejectsInvalidProgram(t *testing.T) {
	bad := &prog.Program{MemSize: 7}
	if _, err := MeasureFunctional("bad", bad, vm.Params{}); err == nil {
		t.Error("MeasureFunctional accepted an invalid program")
	}
	if _, err := Measure("bad", bad, IvyBridge(), vm.Params{}); err == nil {
		t.Error("Measure accepted an invalid program")
	}
}
