package hashcore

// One benchmark per table/figure of the paper's evaluation plus the §VI
// ablations. Benchmarks run reduced widget populations so `go test
// -bench=.` stays tractable; `go run ./cmd/hcbench -run <name>` prints
// the full N=1000 runs. Every benchmark reports the figure's
// headline statistic as a custom metric, so the numbers the paper plots
// are visible straight from the bench output.

import (
	"context"
	"math"
	"testing"

	"hashcore/internal/experiments"
	"hashcore/internal/perfprox"
	"hashcore/internal/vm"
)

// benchPopulation caches one reduced widget population across benchmarks
// within a single `go test -bench` process.
var benchPop *experiments.Population

func population(b *testing.B) *experiments.Population {
	b.Helper()
	if benchPop == nil {
		pop, err := experiments.RunPopulation(experiments.Config{N: 30, MasterSeed: 2019})
		if err != nil {
			b.Fatal(err)
		}
		benchPop = pop
	}
	return benchPop
}

// BenchmarkTableI_SeedSplit measures the Table I seed decomposition (and
// asserts its fields by construction elsewhere; see perfprox tests).
func BenchmarkTableI_SeedSplit(b *testing.B) {
	var seed perfprox.Seed
	for i := range seed {
		seed[i] = byte(i)
	}
	var sink uint32
	for i := 0; i < b.N; i++ {
		seed[0] = byte(i)
		f := perfprox.Split(seed)
		sink ^= f.IntALU ^ f.Mem
	}
	_ = sink
}

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

// BenchmarkFigure2_IPC reproduces Figure 2 at reduced N: the IPC
// distribution of Leela-profile widgets vs. the reference workload on the
// Ivy-Bridge-like simulator.
func BenchmarkFigure2_IPC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchPop = nil // force a fresh population per iteration
		pop := population(b)
		fig := experiments.Figure2(pop)
		b.ReportMetric(fig.Summary.Mean, "widget-IPC-mean")
		b.ReportMetric(fig.Summary.StdDev, "widget-IPC-std")
		b.ReportMetric(fig.Reference, "reference-IPC")
		b.ReportMetric(fig.KSNormal, "KS-vs-normal")
	}
}

// BenchmarkFigure3_Branch reproduces Figure 3 at reduced N: the
// branch-prediction accuracy distribution vs. the reference.
func BenchmarkFigure3_Branch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pop := population(b)
		fig := experiments.Figure3(pop)
		b.ReportMetric(fig.Summary.Mean, "widget-acc-mean")
		b.ReportMetric(fig.Reference, "reference-acc")
	}
}

// BenchmarkOutputSizes reproduces the §V output-size observation
// (paper: 20-38 KB).
func BenchmarkOutputSizes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pop := population(b)
		sizes := experiments.OutputSizes(pop)
		b.ReportMetric(sizes.Summary.Min, "min-KB")
		b.ReportMetric(sizes.Summary.Mean, "mean-KB")
		b.ReportMetric(sizes.Summary.Max, "max-KB")
	}
}

// BenchmarkNoiseShrinksBranchFraction reproduces the §V positive-noise
// property: the mean widget branch fraction sits below the profile's.
func BenchmarkNoiseShrinksBranchFraction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pop := population(b)
		bf := experiments.BranchFractions(pop)
		b.ReportMetric(bf.Summary.Mean, "widget-branch-frac")
		b.ReportMetric(bf.Reference, "profile-branch-frac")
		if !(bf.Summary.Mean < bf.Reference) {
			b.Fatal("positive-noise property violated")
		}
	}
}

// BenchmarkAblation_GenerationVsSelection reproduces the §VI-A trade-off.
func BenchmarkAblation_GenerationVsSelection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := experiments.GenVsSel("leela", []int{16}, 4, vm.Params{})
		if err != nil {
			b.Fatal(err)
		}
		r := results[0]
		b.ReportMetric(r.GenExecFrac*100, "exec%-generation")
		b.ReportMetric(r.SelExecFrac*100, "exec%-selection")
		b.ReportMetric(float64(r.PoolStorage)/1024, "pool-KB")
	}
}

// BenchmarkAblation_RandomXLite reproduces the §VI-C comparison: uniform
// random-program widgets vs. profile-targeted ones.
func BenchmarkAblation_RandomXLite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := experiments.RandomXPopulation(6, 7, vm.Params{})
		if err != nil {
			b.Fatal(err)
		}
		pop := population(b)
		fig2 := experiments.Figure2(pop)
		b.ReportMetric(rep.Summary.Mean, "randomx-IPC-mean")
		b.ReportMetric(fig2.Summary.Mean, "hashcore-IPC-mean")
		b.ReportMetric(math.Abs(rep.Summary.Mean-fig2.Reference), "randomx-IPC-gap")
		b.ReportMetric(math.Abs(fig2.Summary.Mean-fig2.Reference), "hashcore-IPC-gap")
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

// BenchmarkBaseline_Throughput reproduces the related-work comparison:
// hashes/second for SHA-256d, scrypt, RandomX-lite and HashCore.
func BenchmarkBaseline_Throughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := experiments.BaselineThroughput("leela", 2, vm.Params{})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			b.ReportMetric(r.PerSec, r.Name+"-H/s")
		}
	}
}

// BenchmarkAblation_Predictors compares branch-predictor designs on the
// same widget: no standard predictor family should "solve" HashCore's
// data-dependent branches (else an ASIC could cheapen the front-end).
func BenchmarkAblation_Predictors(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := experiments.PredictorAblation("leela", 99, vm.Params{})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			b.ReportMetric(r.Accuracy, string(r.Kind)+"-acc")
		}
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
