package vm_test

// Benchmarks decomposing the native backend's per-hash cycle on the
// production path: a fresh LoadTrusted every iteration, exactly like the
// hashing session, so the compile cache never hits — and a different
// widget every iteration, because a session never sees one twice. A
// benchmark that reloads a single widget lets the branch predictor learn
// the program and flatters whatever branches on it (the encoder this
// package's compiler replaced measured 116 µs that way and 160 µs in a
// session). Comparing these against BenchmarkRunUnobserved shows where a
// native hash's time goes: load, compile, generated code.

import (
	"testing"
	"time"

	"hashcore/internal/perfprox"
	"hashcore/internal/prog"
	"hashcore/internal/vm"
	"hashcore/internal/workload"
)

// benchWidgets generates the widgets of one profile the cycle benchmarks
// rotate through, each with storage of its own.
func benchWidgets(tb testing.TB, profile string) []*prog.Program {
	tb.Helper()
	w, err := workload.ByName(profile)
	if err != nil {
		tb.Fatal(err)
	}
	gen, err := perfprox.NewGenerator(w.Profile, perfprox.Params{})
	if err != nil {
		tb.Fatal(err)
	}
	widgets := make([]*prog.Program, 64)
	for i := range widgets {
		if widgets[i], err = gen.Generate(seedFromWords(uint64(i), 0xbe9c4)); err != nil {
			tb.Fatal(err)
		}
	}
	return widgets
}

// BenchmarkNativeLoadCompile measures LoadTrusted + JIT compilation alone
// (no execution), per profile: the per-hash price of producing fresh
// native code, also per widget instruction and as code bytes per
// instruction.
func BenchmarkNativeLoadCompile(b *testing.B) {
	requireNative(b)
	for _, profile := range workload.Names() {
		b.Run(profile, func(b *testing.B) {
			widgets := benchWidgets(b, profile)
			var m vm.Machine
			for _, w := range widgets { // the compiler's buffers at their high-water mark
				m.LoadTrusted(w)
				if _, err := m.CompileNative(); err != nil {
					b.Fatal(err)
				}
			}
			instrs, bytes := 0, 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := widgets[i%len(widgets)]
				m.LoadTrusted(w)
				n, err := m.CompileNative()
				if err != nil {
					b.Fatal(err)
				}
				instrs, bytes = instrs+len(w.Code), bytes+n
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
			b.ReportMetric(float64(bytes)/float64(instrs), "bytes/instr")
		})
	}
}

// benchCycle is the full production cycle of one profile's widgets under
// one backend: load, compile (native) or fuse (interpreter), reset the
// written filter and run.
func benchCycle(b *testing.B, backend vm.Backend, profile string) {
	widgets := benchWidgets(b, profile)
	var m vm.Machine
	m.SetBackend(backend)
	var res vm.Result
	warmCycle(&m, widgets, &res)
	retired := uint64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.LoadTrusted(widgets[i%len(widgets)])
		m.RunInto(vm.Params{}, nil, &res)
		retired += res.Retired
	}
	b.ReportMetric(float64(retired)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// warmCycle runs every widget once, so that what m and res hold reaches
// its high-water mark before the clock starts.
func warmCycle(m *vm.Machine, widgets []*prog.Program, res *vm.Result) {
	for _, w := range widgets {
		m.LoadTrusted(w)
		m.RunInto(vm.Params{}, nil, res)
	}
}

// BenchmarkNativeCycle is the cycle under the native backend, per profile.
func BenchmarkNativeCycle(b *testing.B) {
	requireNative(b)
	for _, profile := range workload.Names() {
		b.Run(profile, func(b *testing.B) { benchCycle(b, vm.BackendNative, profile) })
	}
}

// BenchmarkInterpCycle is the same fresh-load cycle under the interpreter,
// per profile: /leela is the like-for-like baseline for
// BenchmarkNativeCycle/leela, and the six together are the measurement the
// fused set is judged by (DESIGN.md §9's ms/widget table is this benchmark
// on trees that differ only in isa's fuse table).
func BenchmarkInterpCycle(b *testing.B) {
	for _, profile := range workload.Names() {
		b.Run(profile, func(b *testing.B) { benchCycle(b, vm.BackendInterp, profile) })
	}
}

// BenchmarkNativeRunOnly is generated-code speed, per profile: the cycle
// of BenchmarkNativeCycle with only the run timed — the reset of the
// 32 KiB written filter and the native run of a widget compiled just
// before it, as a session runs one. ns/op is per run; ns/instr per
// retired instruction.
func BenchmarkNativeRunOnly(b *testing.B) {
	requireNative(b)
	for _, profile := range workload.Names() {
		b.Run(profile, func(b *testing.B) {
			widgets := benchWidgets(b, profile)
			var m vm.Machine
			m.SetBackend(vm.BackendNative)
			var res vm.Result
			warmCycle(&m, widgets, &res)
			var runNs int64
			retired := uint64(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.LoadTrusted(widgets[i%len(widgets)])
				if _, err := m.CompileNative(); err != nil {
					b.Fatal(err)
				}
				start := time.Now()
				m.RunInto(vm.Params{}, nil, &res)
				runNs += time.Since(start).Nanoseconds()
				retired += res.Retired
			}
			b.ReportMetric(float64(runNs)/float64(b.N), "ns/op")
			b.ReportMetric(float64(runNs)/float64(retired), "ns/instr")
		})
	}
}
