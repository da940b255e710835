package vm_test

// Tests of the native code backend's own contract: when a run compiles,
// hits the cache or falls back (RunStats), that the reload-compile-run
// cycle allocates nothing, backend parsing, and what a bounce to the
// reference step counts. Whether native code computes what the other
// engines do is checkSparseVsDense's question (FuzzEnginesVsDense and
// its fixed sweeps hold every engine to the dense reference).

import (
	"testing"

	"hashcore/internal/vm"
)

func requireNative(tb testing.TB) {
	tb.Helper()
	if !vm.NativeSupported() {
		tb.Skip("no native backend on this platform")
	}
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
