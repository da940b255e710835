package vm_test

// Differential tests for the native code backend: for arbitrary generated
// widgets and arbitrary budget/snapshot parameters, a run compiled to
// native code must produce exactly the Result the fused interpreter does —
// output bytes, retired count, truncation flag and snapshot count.
// These mirror the fused-vs-unfused suite one layer up: interpreter
// correctness is anchored to the per-instruction reference step, and the
// native backend is anchored to the interpreter (FuzzEnginesVsDense holds
// all of them to the dense reference on fuzzed widgets).

import (
	"bytes"
	"testing"

	"hashcore/internal/vm"
)

func requireNative(tb testing.TB) {
	tb.Helper()
	if !vm.NativeSupported() {
		tb.Skip("no native backend on this platform")
	}
}

// checkNativeVsInterp runs m under the forced native backend and the
// forced interpreter with identical params and fails on any divergence.
func checkNativeVsInterp(t *testing.T, m *vm.Machine, params vm.Params) (native vm.Result) {
	t.Helper()
	var interp vm.Result
	m.SetBackend(vm.BackendNative)
	m.RunInto(params, nil, &native)
	if st := m.LastRunStats(); st.Backend != vm.BackendNative {
		t.Fatalf("params %+v: native run fell back to the interpreter: %v", params, st.FallbackErr)
	}
	m.SetBackend(vm.BackendInterp)
	m.RunInto(params, nil, &interp)
	if !bytes.Equal(native.Output, interp.Output) {
		t.Fatalf("params %+v: native/interp outputs differ (%d vs %d bytes)",
			params, len(native.Output), len(interp.Output))
	}
	if native.Retired != interp.Retired || native.Truncated != interp.Truncated ||
		native.Snapshots != interp.Snapshots {
		t.Fatalf("params %+v: result metadata diverged:\n native %+v\n interp %+v",
			params, native, interp)
	}
	return native
}

// TestNativeMatchesInterpOnBoundaries sweeps generated widgets from every
// workload family through budgets and snapshot intervals that land exactly
// on, one before and one after the program's natural retirement — the
// cases where native code must bounce boundary blocks to the interpreter's
// reference step and re-enter at the right block with identical state.
func TestNativeMatchesInterpOnBoundaries(t *testing.T) {
	requireNative(t)
	for _, name := range []string{"leela", "lbm"} {
		gen := fullProfileGenerator(t, name)
		for i := uint64(0); i < 4; i++ {
			p, err := gen.Generate(seedFromWords(i, 0x7e57))
			if err != nil {
				t.Fatal(err)
			}
			m, err := vm.New(p)
			if err != nil {
				t.Fatal(err)
			}
			natural := checkNativeVsInterp(t, m, vm.Params{}).Retired

			for _, b := range []uint64{natural, natural - 1, natural + 1, natural / 2, natural/3 + 1, 1, 2} {
				if b == 0 {
					continue
				}
				checkNativeVsInterp(t, m, vm.Params{MaxInstructions: b})
			}
			for _, iv := range []uint64{1, 2, 3, 7, natural - 1, natural, 64} {
				if iv == 0 {
					continue
				}
				checkNativeVsInterp(t, m, vm.Params{SnapshotInterval: iv})
				checkNativeVsInterp(t, m, vm.Params{SnapshotInterval: iv, MaxInstructions: natural - 1})
			}
		}
	}
}

// FuzzNativeVsFused generates a widget from fuzzed seed material and
// executes it under fuzzed budget/snapshot parameters through the native
// backend and the fused interpreter, requiring bit-identical Results.
func FuzzNativeVsFused(f *testing.F) {
	requireNative(f)
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
		natural := checkNativeVsInterp(t, m, params).Retired

		params.MaxInstructions = boundaryBudget(budgetSel, natural)
		checkNativeVsInterp(t, m, params)
	})
}

// TestNativeRunStats pins the RunStats contract: the first unobserved run
// of a load compiles, subsequent runs hit the cache, observed runs always
// interpret, and a reload recompiles.
func TestNativeRunStats(t *testing.T) {
	requireNative(t)
	p := benchWidget(t)
	m, err := vm.New(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.BackendSelected(); got != vm.BackendNative {
		t.Fatalf("BackendSelected() = %v on a supported platform, want native", got)
	}

	var res vm.Result
	m.RunInto(vm.Params{}, nil, &res)
	st := m.LastRunStats()
	if st.Backend != vm.BackendNative || !st.Compiled || st.CompileNs <= 0 || st.FallbackErr != nil {
		t.Fatalf("first run stats = %+v, want a fresh native compile", st)
	}

	m.RunInto(vm.Params{}, nil, &res)
	if st = m.LastRunStats(); st.Backend != vm.BackendNative || st.Compiled || st.CompileNs != 0 {
		t.Fatalf("second run stats = %+v, want a cached native run", st)
	}

	m.RunInto(vm.Params{}, &nullObserver{}, &res)
	if st = m.LastRunStats(); st.Backend != vm.BackendInterp {
		t.Fatalf("observed run stats = %+v, want the interpreter", st)
	}

	m.LoadTrusted(p)
	m.RunInto(vm.Params{}, nil, &res)
	if st = m.LastRunStats(); st.Backend != vm.BackendNative || !st.Compiled {
		t.Fatalf("post-reload run stats = %+v, want a recompile", st)
	}

	m.SetBackend(vm.BackendInterp)
	m.RunInto(vm.Params{}, nil, &res)
	if st = m.LastRunStats(); st.Backend != vm.BackendInterp || st.FallbackErr != nil {
		t.Fatalf("forced-interp run stats = %+v", st)
	}

	if size, err := m.CompileNative(); err != nil || size == 0 {
		t.Fatalf("CompileNative() = %d, %v, want installed code", size, err)
	}
}

// TestNativeZeroAlloc is the allocation guard for the whole native cycle
// the production session performs per hash: reload, recompile, run — plus
// runs whose parameters force slow-path bounces and truncation. After the
// compiler and result buffers reach their high-water marks, none of it may
// allocate.
func TestNativeZeroAlloc(t *testing.T) {
	requireNative(t)
	if testing.Short() {
		t.Skip("allocation measurement skipped in -short mode")
	}
	p := benchWidget(t)
	m, err := vm.New(p)
	if err != nil {
		t.Fatal(err)
	}
	m.SetBackend(vm.BackendNative)
	slow := vm.Params{SnapshotInterval: 3}
	trunc := vm.Params{SnapshotInterval: 5, MaxInstructions: 10_000}
	var res vm.Result
	m.RunInto(vm.Params{}, nil, &res) // warm: compile + buffer high-water marks
	m.RunInto(slow, nil, &res)
	m.RunInto(trunc, nil, &res)
	allocs := testing.AllocsPerRun(3, func() {
		m.LoadTrusted(p) // production pattern: fresh load + compile every hash
		m.RunInto(vm.Params{}, nil, &res)
		m.RunInto(slow, nil, &res)
		m.RunInto(trunc, nil, &res)
	})
	if allocs != 0 {
		t.Errorf("native cycle allocated %.1f objects/run in steady state, want 0", allocs)
	}
}

// TestParseBackend covers the flag/env parsing surface.
func TestParseBackend(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want vm.Backend
		ok   bool
	}{
		{"", vm.BackendNative, true},
		{"auto", vm.BackendNative, true},
		{"native", vm.BackendNative, true},
		{"interp", vm.BackendInterp, true},
		{"jit", vm.BackendNative, false},
		{"NATIVE", vm.BackendNative, false},
	} {
		got, err := vm.ParseBackend(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseBackend(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
	for _, b := range []vm.Backend{vm.BackendNative, vm.BackendInterp} {
		rt, err := vm.ParseBackend(b.String())
		if err != nil || rt != b {
			t.Errorf("ParseBackend(%v.String()) = %v, %v, want round-trip", b, rt, err)
		}
	}
	// The zero value is native-where-supported, and "auto" is only ever
	// read, never written.
	if b := vm.Backend(0); b != vm.BackendNative || b.String() != "native" {
		t.Errorf("zero Backend = %v, want native", b)
	}
}

// TestSlowBouncesTrackSnapshots pins what RunStats.SlowBounces counts: a
// native run leaves its code once per snapshot boundary (the block the
// boundary falls in runs on the per-instruction path) and once more where
// the budget ends, so bounces stay within a couple of retired/interval
// whatever the interval; the interpreter never bounces.
func TestSlowBouncesTrackSnapshots(t *testing.T) {
	requireNative(t)
	m, err := vm.New(benchWidget(t))
	if err != nil {
		t.Fatal(err)
	}
	var res vm.Result
	for _, interval := range []uint64{vm.DefaultSnapshotInterval, 512, 100} {
		m.SetBackend(vm.BackendNative)
		m.RunInto(vm.Params{SnapshotInterval: interval}, nil, &res)
		st := m.LastRunStats()
		want := res.Retired / interval
		if st.Backend != vm.BackendNative || st.SlowBounces+2 < want || st.SlowBounces > want+2 {
			t.Errorf("interval %d on %v: %d bounces for %d retired instructions, want about %d",
				interval, st.Backend, st.SlowBounces, res.Retired, want)
		}
	}
	m.SetBackend(vm.BackendInterp)
	m.RunInto(vm.Params{}, nil, &res)
	if st := m.LastRunStats(); st.SlowBounces != 0 {
		t.Errorf("interpreter run reports %d bounces", st.SlowBounces)
	}
}
