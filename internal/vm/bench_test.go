package vm_test

// Benchmarks for the interpreter's two executors, on a realistic widget
// (Leela profile, paper defaults). An unobserved run takes the fused
// block-batched fast loop, the production hashing path where there is no
// native backend; an observed run is the per-instruction reference step
// from start to finish, which feeds the uarch timing model and the
// profiler. The allocation tests pin down the zero-allocation contract of
// the reusable Machine/Result pair.

import (
	"testing"

	"hashcore/internal/perfprox"
	"hashcore/internal/prog"
	"hashcore/internal/vm"
	"hashcore/internal/workload"
)

// benchWidget generates a deterministic Leela-profile widget.
func benchWidget(tb testing.TB) *prog.Program {
	tb.Helper()
	w, err := workload.ByName("leela")
	if err != nil {
		tb.Fatal(err)
	}
	gen, err := perfprox.NewGenerator(w.Profile, perfprox.Params{})
	if err != nil {
		tb.Fatal(err)
	}
	var seed perfprox.Seed
	for i := range seed {
		seed[i] = byte(i*31 + 7)
	}
	p, err := gen.Generate(seed)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// nullObserver is the cheapest possible observer, so the observed
// benchmark measures loop overhead (event construction + dispatch), not
// observer work.
type nullObserver struct{ retired uint64 }

func (o *nullObserver) OnRetire(ev *vm.Event) { o.retired++ }

func BenchmarkRunUnobserved(b *testing.B) {
	m, err := vm.New(benchWidget(b))
	if err != nil {
		b.Fatal(err)
	}
	var res vm.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RunInto(vm.Params{}, nil, &res)
	}
	b.ReportMetric(float64(res.Retired)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

func BenchmarkRunObserved(b *testing.B) {
	m, err := vm.New(benchWidget(b))
	if err != nil {
		b.Fatal(err)
	}
	var res vm.Result
	obs := &nullObserver{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RunInto(vm.Params{}, obs, &res)
	}
	b.ReportMetric(float64(res.Retired)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// TestRunIntoZeroAlloc asserts the reusable execution path — RunInto with
// a recycled Result, the documented zero-alloc path (vm.Machine.Run's
// convenience wrapper allocates the Result; execution itself never does) —
// allocates nothing once the Result's output buffer has reached its
// high-water capacity.
func TestRunIntoZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement skipped in -short mode")
	}
	m, err := vm.New(benchWidget(t))
	if err != nil {
		t.Fatal(err)
	}
	var res vm.Result
	m.RunInto(vm.Params{}, nil, &res) // warm the buffers
	allocs := testing.AllocsPerRun(3, func() {
		m.RunInto(vm.Params{}, nil, &res)
	})
	if allocs != 0 {
		t.Errorf("RunInto allocated %.1f objects/run in steady state, want 0", allocs)
	}
}

// TestFusedLoopZeroAlloc is the allocation guard for the fused
// block-batched loop specifically: a small snapshot interval forces the
// per-instruction reference step (and its mid-block snapshots) to run on
// nearly every block, and a tight budget exercises the truncation path —
// none of which may allocate in the steady state.
func TestFusedLoopZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement skipped in -short mode")
	}
	m, err := vm.New(benchWidget(t))
	if err != nil {
		t.Fatal(err)
	}
	params := vm.Params{SnapshotInterval: 3}
	trunc := vm.Params{SnapshotInterval: 5, MaxInstructions: 10_000}
	var res vm.Result
	m.RunInto(params, nil, &res) // warm the buffers to their high-water marks
	m.RunInto(trunc, nil, &res)
	allocs := testing.AllocsPerRun(3, func() {
		m.RunInto(params, nil, &res)
		m.RunInto(trunc, nil, &res)
	})
	if allocs != 0 {
		t.Errorf("fused loop allocated %.1f objects/run in steady state, want 0", allocs)
	}
}

// TestObservedMatchesUnobserved asserts the fast loop and the reference
// step retire identical architectural state: same output bytes and
// counters. This is the determinism contract the loop split must not
// break.
func TestObservedMatchesUnobserved(t *testing.T) {
	p := benchWidget(t)
	fast, err := vm.Run(p, vm.Params{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	obs := &nullObserver{}
	slow, err := vm.Run(p, vm.Params{}, obs)
	if err != nil {
		t.Fatal(err)
	}
	if string(fast.Output) != string(slow.Output) {
		t.Error("observed and unobserved loops produced different outputs")
	}
	if fast.Retired != slow.Retired || fast.Snapshots != slow.Snapshots ||
		fast.Truncated != slow.Truncated {
		t.Errorf("result metadata diverged:\n fast %+v\n slow %+v", fast, slow)
	}
	if obs.retired != slow.Retired {
		t.Errorf("observer saw %d retirements, result says %d", obs.retired, slow.Retired)
	}
}
