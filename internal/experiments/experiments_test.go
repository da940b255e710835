package experiments

import (
	"math"
	"os"
	"strings"
	"testing"

	"hashcore"
	"hashcore/internal/perfprox"
	"hashcore/internal/vm"
)

// smallPop runs a reduced population (timing enabled) shared across tests.
func smallPop(t *testing.T) *Population {
	t.Helper()
	pop, err := RunPopulation(Config{N: 24, MasterSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return pop
}

func TestPopulationFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("population run in -short mode")
	}
	pop := smallPop(t)
	if len(pop.Samples) != 24 {
		t.Fatalf("got %d samples", len(pop.Samples))
	}

	fig2 := Figure2(pop)
	t.Logf("Figure 2 (IPC): mean=%.3f std=%.3f ref=%.3f ks=%.3f",
		fig2.Summary.Mean, fig2.Summary.StdDev, fig2.Reference, fig2.KSNormal)
	if fig2.Summary.Mean <= 0 {
		t.Fatal("no IPC measured")
	}
	if fig2.Summary.StdDev <= 0 {
		t.Error("widget IPC has no spread — noise is not doing anything")
	}
	// Shape claim: widget IPC distribution is centred near the reference
	// workload (within 50% relative).
	if ratio := fig2.Summary.Mean / fig2.Reference; ratio < 0.5 || ratio > 1.5 {
		t.Errorf("widget IPC mean %.3f far from reference %.3f", fig2.Summary.Mean, fig2.Reference)
	}

	fig3 := Figure3(pop)
	t.Logf("Figure 3 (branch acc): mean=%.3f std=%.3f ref=%.3f",
		fig3.Summary.Mean, fig3.Summary.StdDev, fig3.Reference)
	if fig3.Summary.Mean < 0.5 || fig3.Summary.Mean > 1 {
		t.Errorf("branch accuracy mean %.3f implausible", fig3.Summary.Mean)
	}
	if diff := math.Abs(fig3.Summary.Mean - fig3.Reference); diff > 0.15 {
		t.Errorf("branch accuracy mean %.3f vs reference %.3f", fig3.Summary.Mean, fig3.Reference)
	}

	sizes := OutputSizes(pop)
	t.Logf("output sizes: min=%.1fKB max=%.1fKB", sizes.Summary.Min, sizes.Summary.Max)
	if sizes.Summary.Min < 18 || sizes.Summary.Max > 40 {
		t.Errorf("output sizes [%.1f, %.1f] KB outside the paper's band",
			sizes.Summary.Min, sizes.Summary.Max)
	}

	bf := BranchFractions(pop)
	if !(bf.Summary.Mean < bf.Reference) {
		t.Errorf("mean branch fraction %.4f not below profile fraction %.4f (positive-noise claim)",
			bf.Summary.Mean, bf.Reference)
	}

	if !strings.Contains(fig2.Render(), "reference") {
		t.Error("render missing reference line")
	}
}

func TestPopulationFunctionalOnly(t *testing.T) {
	pop, err := RunPopulation(Config{N: 6, MasterSeed: 3, skipTiming: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range pop.Samples {
		if s.IPC != 0 {
			t.Error("functional-only run reported IPC")
		}
		if s.OutputBytes == 0 {
			t.Error("no output measured")
		}
		if s.MixDistance > 0.3 {
			t.Errorf("mix distance %.3f too large", s.MixDistance)
		}
	}
}

func TestPopulationUnknownProfile(t *testing.T) {
	if _, err := RunPopulation(Config{N: 1, ProfileName: "nope"}); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestTable1Rendering(t *testing.T) {
	var seed perfprox.Seed
	for i := range seed {
		seed[i] = byte(i)
	}
	out := Table1(seed)
	for _, want := range []string{"0-31", "Integer ALU", "224-255", "Memory Seed", "0x00010203"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 output missing %q:\n%s", want, out)
		}
	}
}

// TestFigure1StageTiming: Figure 1 times the hash itself — its digest is
// Hash's, its stages fit inside its total, and it reports a compile stage
// exactly when the widget ran as native code.
func TestFigure1StageTiming(t *testing.T) {
	input := []byte("block")
	st, err := Figure1("leela", input)
	if err != nil {
		t.Fatal(err)
	}
	h, err := hashcore.New()
	if err != nil {
		t.Fatal(err)
	}
	if want := h.Sum(input); st.Digest != want {
		t.Errorf("Figure 1 digest %x, want Hash's %x", st.Digest, want)
	}
	if st.Gate < 0 || st.Generate <= 0 || st.Execute <= 0 || st.Gate+st.Generate+st.Compile+st.Execute > st.Total {
		t.Errorf("stages do not fit the total: %+v", st)
	}
	backend, err := vm.ParseBackend(os.Getenv("HASHCORE_BACKEND"))
	if err != nil {
		t.Fatal(err)
	}
	if native := backend == vm.BackendNative && hashcore.NativeBackendSupported(); native != (st.Compile > 0) {
		t.Errorf("native = %v, but compile took %v", native, st.Compile)
	}
}

func TestGenVsSelAblation(t *testing.T) {
	results, err := GenVsSel("leela", []int{2, 4}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	if results[1].PoolStorage <= results[0].PoolStorage {
		t.Error("larger pool should cost more storage")
	}
	for _, r := range results {
		// §VI-A: selection is far cheaper per hash than generation, so
		// execution accounts for a higher share of total time.
		if r.SelExecFrac <= r.GenExecFrac {
			t.Errorf("pool %d: exec share under selection (%.2f) not above generation (%.2f)",
				r.PoolSize, r.SelExecFrac, r.GenExecFrac)
		}
	}
	if out := RenderGenVsSel(results); !strings.Contains(out, "exec%") {
		t.Error("render missing header")
	}
}

func TestBaselineThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput race in -short mode")
	}
	results, err := BaselineThroughput("leela", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d results", len(results))
	}
	byName := map[string]float64{}
	for _, r := range results {
		if r.PerSec <= 0 {
			t.Errorf("%s: zero throughput", r.Name)
		}
		byName[r.Name] = r.PerSec
	}
	// The whole point: conventional hashes are many orders of magnitude
	// faster per evaluation than widget-backed PoW.
	if byName["sha256d"] < byName["hashcore-leela"]*1000 {
		t.Errorf("sha256d (%.0f/s) not >1000x hashcore (%.2f/s)",
			byName["sha256d"], byName["hashcore-leela"])
	}
	if out := RenderThroughput(results); !strings.Contains(out, "sha256d") {
		t.Error("render missing baseline")
	}
}

func TestRandomXPopulation(t *testing.T) {
	if testing.Short() {
		t.Skip("randomx population in -short mode")
	}
	rep, err := RandomXPopulation(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Summary.N != 4 || rep.Summary.Mean <= 0 {
		t.Errorf("bad randomx population summary: %+v", rep.Summary)
	}
}
