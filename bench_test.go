package hashcore

// The hash's own benchmarks and its steady-state memory checks: the
// Figure 1 pipeline through the pooled and the dedicated-session path,
// other profiles and mining. The paper's tables, figures and ablations
// are benchmarked in experiments_bench_test.go.

import (
	"context"
	"runtime"
	"testing"
)

// BenchmarkFigure1_Pipeline measures the full HashCore evaluation
// (Figure 1: gate -> widget generation -> execution -> gate) on the
// paper's Leela profile.
func BenchmarkFigure1_Pipeline(b *testing.B) {
	h, err := New()
	if err != nil {
		b.Fatal(err)
	}
	input := make([]byte, 80)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		input[0], input[1] = byte(i), byte(i>>8)
		if _, err := h.Hash(input); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "hashes/s")
}

// BenchmarkHash measures the pooled steady-state hashing path — the
// headline hashes/sec number. Allocations are reported; in steady state
// they must be zero (TestHashZeroAllocSteadyState asserts it).
func BenchmarkHash(b *testing.B) {
	h, err := New()
	if err != nil {
		b.Fatal(err)
	}
	input := make([]byte, 80)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		input[0], input[1] = byte(i), byte(i>>8)
		if _, err := h.Hash(input); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "hashes/s")
}

// BenchmarkHashSession measures a dedicated session (the miner-worker
// path): pooled overhead removed, everything reused.
func BenchmarkHashSession(b *testing.B) {
	h, err := New()
	if err != nil {
		b.Fatal(err)
	}
	s := h.NewSession()
	input := make([]byte, 80)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		input[0], input[1] = byte(i), byte(i>>8)
		if _, err := s.Hash(input); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "hashes/s")
}

// TestHashZeroAllocSteadyState locks in the zero-allocation pipeline:
// once a session's buffers have reached their high-water capacities,
// hashing must not allocate — through a dedicated session and through
// the pooled public Hash path alike, on either execution engine, on the
// default profile and on mcf, whose ~10,000 stored words per hash are
// the most any profile keeps in the VM's written-word table.
func TestHashZeroAllocSteadyState(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement skipped in -short mode")
	}
	for _, backend := range []string{"native", "interp"} {
		t.Run(backend, func(t *testing.T) {
			for _, profile := range []string{"leela", "mcf"} {
				t.Run(profile, func(t *testing.T) { testHashZeroAlloc(t, backend, profile) })
			}
		})
	}
}

func testHashZeroAlloc(t *testing.T, backend, profile string) {
	h, err := New(WithBackend(backend), WithProfile(profile))
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("steady-state allocation probe")

	s := h.NewSession()
	for i := 0; i < 3; i++ { // reach high-water buffer capacities
		if _, err := s.Hash(input); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(5, func() {
		if _, err := s.Hash(input); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Session.Hash allocated %.1f objects/op in steady state, want 0", allocs)
	}

	// The pooled path is also allocation-free, but a GC anywhere in the
	// measurement clears the sync.Pool and forces a fresh session, so
	// tolerate one eviction: re-warm and retry before declaring failure.
	// Under the race detector the added GC pressure makes evictions the
	// norm rather than the exception, so the pooled half is skipped there
	// (the per-session assertion above still runs).
	if raceEnabled {
		t.Skip("sync.Pool evictions dominate under the race detector")
	}
	pooled := func() float64 {
		for i := 0; i < 3; i++ { // warm the pool's session
			if _, err := h.Hash(input); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := h.Hash(input); err != nil {
				t.Fatal(err)
			}
		})
	}
	allocs := pooled()
	if allocs != 0 {
		allocs = pooled()
	}
	if allocs != 0 {
		t.Errorf("pooled Hash allocated %.1f objects/op in steady state, want 0", allocs)
	}
}

// TestSessionFootprint: what a warm native leela session holds on the
// heap — generator scratch, program, VM scratch memory, the recycled
// snapshot buffer — sized by what its hashes used, not by the
// instruction budget's worst case. Eight sessions are warmed and measured
// together; the bound is on their mean.
func TestSessionFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("heap measurement skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("the race detector's shadow allocations distort the heap")
	}
	h, err := New(WithBackend("native"), WithProfile("leela"))
	if err != nil {
		t.Fatal(err)
	}
	warm := func(s *Session) {
		for i := 0; i < 3; i++ {
			if _, err := s.Hash([]byte{byte(i), 'f', 'p'}); err != nil {
				t.Fatal(err)
			}
		}
	}
	warm(h.NewSession()) // process-wide tables (the compiler's templates) are built once, here

	const n = 8
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sessions := make([]*Session, n)
	for i := range sessions {
		sessions[i] = h.NewSession()
		warm(sessions[i])
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(sessions)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n
	t.Logf("a warm leela session holds %d KiB of heap", per>>10)
	if per > 640<<10 {
		t.Errorf("a warm leela session holds %d KiB of heap, want at most 640 KiB", per>>10)
	}
}

// BenchmarkAblation_AlternateProfiles exercises §VI-B modularity: hashing
// under a different reference profile.
func BenchmarkAblation_AlternateProfiles(b *testing.B) {
	for _, name := range []string{"exchange2", "lbm"} {
		b.Run(name, func(b *testing.B) {
			h, err := New(WithProfile(name))
			if err != nil {
				b.Fatal(err)
			}
			input := make([]byte, 80)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				input[0] = byte(i)
				if _, err := h.Hash(input); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMining measures end-to-end mining at a 4-bit demo difficulty.
func BenchmarkMining(b *testing.B) {
	h, err := New()
	if err != nil {
		b.Fatal(err)
	}
	target := TargetWithZeroBits(4)
	for i := 0; i < b.N; i++ {
		prefix := []byte{byte(i), byte(i >> 8), 0xcc}
		if _, err := h.Mine(context.Background(), prefix, target, 2); err != nil {
			b.Fatal(err)
		}
	}
}
