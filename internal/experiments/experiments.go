// Package experiments contains one runner per table/figure of the paper's
// evaluation (plus the §VI ablations). cmd/hcbench drives full-scale runs
// (N=1000 widgets, as in the paper); the repository-root benchmarks drive
// reduced-N runs so `go test -bench` stays tractable.
// `go run ./cmd/hcbench -run <name>` prints a full run's data beside the
// paper's figure where there is one.
package experiments

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"time"

	"hashcore"
	"hashcore/internal/isa"
	"hashcore/internal/perfprox"
	"hashcore/internal/profile"
	"hashcore/internal/rng"
	"hashcore/internal/stats"
	"hashcore/internal/uarch"
	"hashcore/internal/vm"
	"hashcore/internal/workload"
	"hashcore/internal/workload/refprog"
)

// Config parameterizes a population run.
type Config struct {
	// N is the number of widgets (the paper uses 1000).
	N int
	// ProfileName selects the reference workload profile (default
	// "leela", as in the paper).
	ProfileName string
	// MasterSeed derives the N hash seeds.
	MasterSeed uint64
	// Workers bounds parallelism (default NumCPU).
	Workers int
	// skipTiming disables the uarch model (functional metrics only),
	// which is ~20x faster. Only tests set it.
	skipTiming bool
}

func (c Config) withDefaults() Config {
	if c.N == 0 {
		c.N = 1000
	}
	if c.ProfileName == "" {
		c.ProfileName = "leela"
	}
	if c.Workers == 0 {
		c.Workers = runtime.NumCPU()
	}
	return c
}

// WidgetSample holds the per-widget measurements Figures 2 and 3 plot.
type WidgetSample struct {
	IPC            float64
	BranchAccuracy float64
	MPKI           float64
	OutputBytes    int
	Dynamic        uint64
	MixDistance    float64 // L1 distance from the target profile's mix
	BranchFraction float64
}

// Population is the result of generating and measuring N widgets against
// one reference workload.
type Population struct {
	Config    Config
	Samples   []WidgetSample
	Reference *uarch.Report // the reference workload, same simulator
	Elapsed   time.Duration
}

// RunPopulation reproduces the paper's core experiment: N widgets
// generated from random hash seeds against the reference profile, each
// executed on the Ivy-Bridge-like simulator, with the reference workload
// measured identically.
func RunPopulation(cfg Config) (*Population, error) {
	cfg = cfg.withDefaults()
	w, err := workload.ByName(cfg.ProfileName)
	if err != nil {
		return nil, err
	}
	gen, err := perfprox.NewGenerator(w.Profile, perfprox.Params{})
	if err != nil {
		return nil, err
	}

	// Reference measurement (the "original workload" lines in Figs 2-3).
	refProg, err := refprog.Build(w.Name)
	if err != nil {
		return nil, err
	}
	var ref *uarch.Report
	if cfg.skipTiming {
		ref, err = uarch.MeasureFunctional(w.Name, refProg, vm.Params{})
	} else {
		ref, err = uarch.Measure(w.Name, refProg, uarch.IvyBridge(), vm.Params{})
	}
	if err != nil {
		return nil, err
	}

	start := time.Now()
	samples := make([]WidgetSample, cfg.N)
	errs := make([]error, cfg.N)
	var wg sync.WaitGroup
	sem := make(chan struct{}, cfg.Workers)
	sm := rng.NewSplitMix64(cfg.MasterSeed)
	seeds := make([]perfprox.Seed, cfg.N)
	for i := range seeds {
		for off := 0; off < perfprox.SeedSize; off += 8 {
			binary.BigEndian.PutUint64(seeds[i][off:], sm.Next())
		}
	}

	for i := 0; i < cfg.N; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			samples[i], errs[i] = measureWidget(gen, seeds[i], w.Profile, cfg)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &Population{
		Config:    cfg,
		Samples:   samples,
		Reference: ref,
		Elapsed:   time.Since(start),
	}, nil
}

func measureWidget(gen *perfprox.Generator, seed perfprox.Seed, prof *profile.Profile, cfg Config) (WidgetSample, error) {
	p, err := gen.Generate(seed)
	if err != nil {
		return WidgetSample{}, err
	}
	var r *uarch.Report
	if cfg.skipTiming {
		r, err = uarch.MeasureFunctional("widget", p, vm.Params{})
	} else {
		r, err = uarch.Measure("widget", p, uarch.IvyBridge(), vm.Params{})
	}
	if err != nil {
		return WidgetSample{}, err
	}
	return WidgetSample{
		IPC:            r.IPC,
		BranchAccuracy: r.BranchAccuracy,
		MPKI:           r.MPKI,
		OutputBytes:    r.OutputBytes,
		Dynamic:        r.DynamicInstructions,
		MixDistance:    uarch.MixDistance(r.Mix, prof.Mix),
		BranchFraction: r.Mix[isa.ClassBranch],
	}, nil
}

// DistReport summarizes one figure's distribution against its reference.
type DistReport struct {
	Title     string
	Samples   []float64
	Summary   stats.Summary
	Reference float64
	KSNormal  float64
	Histogram string
}

// Figure2 extracts the IPC distribution (paper Figure 2) from a
// population.
func Figure2(pop *Population) *DistReport {
	xs := make([]float64, len(pop.Samples))
	for i, s := range pop.Samples {
		xs[i] = s.IPC
	}
	return distReport("Figure 2: IPC widget comparison", xs, pop.Reference.IPC)
}

// Figure3 extracts the branch-prediction accuracy distribution (paper
// Figure 3).
func Figure3(pop *Population) *DistReport {
	xs := make([]float64, len(pop.Samples))
	for i, s := range pop.Samples {
		xs[i] = s.BranchAccuracy
	}
	return distReport("Figure 3: branch prediction widget comparison", xs, pop.Reference.BranchAccuracy)
}

// OutputSizes extracts the widget output size distribution in kilobytes
// (the paper's §V text: "outputs ranging in size from 20 kilobytes to 38
// kilobytes").
func OutputSizes(pop *Population) *DistReport {
	xs := make([]float64, len(pop.Samples))
	for i, s := range pop.Samples {
		xs[i] = float64(s.OutputBytes) / 1024
	}
	return distReport("Widget output sizes (KB)", xs, math.NaN())
}

// BranchFractions extracts the per-widget branch instruction fraction,
// whose mean must sit below the profile's branch fraction (positive-only
// noise, §V).
func BranchFractions(pop *Population) *DistReport {
	xs := make([]float64, len(pop.Samples))
	for i, s := range pop.Samples {
		xs[i] = s.BranchFraction
	}
	w, _ := workload.ByName(pop.Config.ProfileName)
	ref := math.NaN()
	if w.Profile != nil {
		ref = w.Profile.Mix[isa.ClassBranch]
	}
	return distReport("Branch fraction under positive noise", xs, ref)
}

func distReport(title string, xs []float64, ref float64) *DistReport {
	s := stats.Summarize(xs)
	span := s.Max - s.Min
	lo, hi := s.Min-span*0.05, s.Max+span*0.05
	if !math.IsNaN(ref) {
		if ref < lo {
			lo = ref - span*0.05
		}
		if ref > hi {
			hi = ref + span*0.05
		}
	}
	if hi <= lo {
		hi = lo + 1
	}
	h := stats.NewHistogram(xs, 20, lo, hi)
	return &DistReport{
		Title:     title,
		Samples:   xs,
		Summary:   s,
		Reference: ref,
		KSNormal:  stats.KSNormal(xs),
		Histogram: h.Render(48, ref),
	}
}

// Render prints a DistReport for terminal consumption.
func (d *DistReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", d.Title)
	fmt.Fprintf(&b, "  n=%d mean=%.4f std=%.4f min=%.4f p5=%.4f median=%.4f p95=%.4f max=%.4f\n",
		d.Summary.N, d.Summary.Mean, d.Summary.StdDev, d.Summary.Min,
		d.Summary.P05, d.Summary.Median, d.Summary.P95, d.Summary.Max)
	if !math.IsNaN(d.Reference) {
		fmt.Fprintf(&b, "  reference (original workload): %.4f\n", d.Reference)
	}
	fmt.Fprintf(&b, "  KS distance from fitted normal: %.4f (n=%d: consistent with Gaussian below ~%.4f)\n",
		d.KSNormal, d.Summary.N, 1.36/math.Sqrt(float64(maxInt(d.Summary.N, 1))))
	b.WriteString(d.Histogram)
	return b.String()
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Table1 renders the Table I seed decomposition, demonstrating the split
// on an example seed.
func Table1(seed perfprox.Seed) string {
	f := perfprox.Split(seed)
	t := stats.NewTable("Hash Bits", "Usage", "Field Value", "Unit Noise")
	rows := []struct {
		bits  string
		usage string
		val   uint32
	}{
		{"0-31", "Integer ALU", f.IntALU},
		{"32-63", "Integer Multiply", f.IntMul},
		{"64-95", "Floating Point ALU", f.FPALU},
		{"96-127", "Loads", f.Loads},
		{"128-159", "Stores", f.Stores},
		{"160-191", "Branch Behavior", f.Branch},
		{"192-223", "Basic Block Vector Seed", f.BBV},
		{"224-255", "Memory Seed", f.Mem},
	}
	for _, r := range rows {
		t.AddRow(r.bits, r.usage, fmt.Sprintf("0x%08x", r.val), fmt.Sprintf("%.6f", perfprox.Unit(r.val)))
	}
	return t.String()
}

// StageTiming reports where the time goes in one hash evaluation —
// Figure 1's pipeline, measured.
type StageTiming struct {
	Gate     time.Duration
	Generate time.Duration
	Compile  time.Duration
	Execute  time.Duration
	Total    time.Duration
	Digest   hashcore.Digest
}

// Figure1 times one hash evaluation on a warmed session and splits it
// along Figure 1's pipeline: the two gate applications, widget
// generation, compilation to native code (zero where the interpreter
// runs the widget) and execution — the reproduction's analogue of the
// paper's script/gcc/binary chain, measured where the hash runs it.
func Figure1(profileName string, input []byte) (*StageTiming, error) {
	h, err := hashcore.New(hashcore.WithProfile(profileName))
	if err != nil {
		return nil, err
	}
	s := h.NewSession()
	if _, err := s.Hash(input); err != nil { // reach the session's warm state
		return nil, err
	}
	var pt hashcore.PhaseTimings
	start := time.Now()
	digest, err := s.HashTimed(input, &pt)
	total := time.Since(start)
	if err != nil {
		return nil, err
	}
	return &StageTiming{
		Gate:     total - time.Duration(pt.GenNs+pt.ExecNs),
		Generate: time.Duration(pt.GenNs),
		Compile:  time.Duration(pt.CompileNs),
		Execute:  time.Duration(pt.ExecNs - pt.CompileNs),
		Total:    total,
		Digest:   digest,
	}, nil
}
