package hashcore_test

// One benchmark per table/figure of the paper's evaluation plus the §VI
// ablations. Benchmarks run reduced widget populations so `go test
// -bench=.` stays tractable; `go run ./cmd/hcbench -run <name>` prints
// the full N=1000 runs. Every benchmark reports the figure's
// headline statistic as a custom metric, so the numbers the paper plots
// are visible straight from the bench output. They live in the external
// test package because the experiment harness imports hashcore.

import (
	"math"
	"testing"

	"hashcore/internal/experiments"
	"hashcore/internal/perfprox"
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
		results, err := experiments.GenVsSel("leela", []int{16}, 4)
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
		rep, err := experiments.RandomXPopulation(6, 7)
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

// BenchmarkBaseline_Throughput reproduces the related-work comparison:
// hashes/second for SHA-256d, scrypt, RandomX-lite and HashCore.
func BenchmarkBaseline_Throughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := experiments.BaselineThroughput("leela", 2)
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
		results, err := experiments.PredictorAblation("leela", 99)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			b.ReportMetric(r.Accuracy, string(r.Kind)+"-acc")
		}
	}
}
