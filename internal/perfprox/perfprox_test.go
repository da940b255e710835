package perfprox

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"hashcore/internal/asm"
	"hashcore/internal/isa"
	"hashcore/internal/profile"
	"hashcore/internal/prog"
	"hashcore/internal/uarch"
	"hashcore/internal/vm"
	"hashcore/internal/workload"
)

// leelaProfile fetches the reference profile the paper's experiments use.
func leelaProfile(t testing.TB) *profile.Profile {
	t.Helper()
	w, err := workload.ByName("leela")
	if err != nil {
		t.Fatal(err)
	}
	return w.Profile
}

func newLeelaGen(t testing.TB) *Generator {
	t.Helper()
	g, err := NewGenerator(leelaProfile(t), Params{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func seedFromUint64(v uint64) Seed {
	var s Seed
	binary.BigEndian.PutUint64(s[0:], v)
	binary.BigEndian.PutUint64(s[8:], v^0xdeadbeef)
	binary.BigEndian.PutUint64(s[16:], v*0x9e3779b97f4a7c15)
	binary.BigEndian.PutUint64(s[24:], v+12345)
	return s
}

// TestSplitTableI verifies the exact Table I bit allocation.
func TestSplitTableI(t *testing.T) {
	var seed Seed
	for i := 0; i < 8; i++ {
		binary.BigEndian.PutUint32(seed[i*4:], uint32(i+1)*0x11111111)
	}
	f := Split(seed)
	checks := []struct {
		name string
		got  uint32
		want uint32
	}{
		{"IntALU (bits 0-31)", f.IntALU, 0x11111111},
		{"IntMul (bits 32-63)", f.IntMul, 0x22222222},
		{"FPALU (bits 64-95)", f.FPALU, 0x33333333},
		{"Loads (bits 96-127)", f.Loads, 0x44444444},
		{"Stores (bits 128-159)", f.Stores, 0x55555555},
		{"Branch (bits 160-191)", f.Branch, 0x66666666},
		{"BBV (bits 192-223)", f.BBV, 0x77777777},
		{"Mem (bits 224-255)", f.Mem, 0x88888888},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %#x, want %#x", c.name, c.got, c.want)
		}
	}
}

func TestUnit(t *testing.T) {
	if got := Unit(0); got != 0 {
		t.Errorf("Unit(0) = %v", got)
	}
	if got := Unit(1 << 31); got != 0.5 {
		t.Errorf("Unit(2^31) = %v, want 0.5", got)
	}
	if got := Unit(^uint32(0)); got >= 1 || got < 0.999 {
		t.Errorf("Unit(max) = %v, want just under 1", got)
	}
}

func TestNewGeneratorValidation(t *testing.T) {
	prof := leelaProfile(t)
	if _, err := NewGenerator(prof, Params{Noise: -1}); err == nil {
		t.Error("negative noise accepted")
	}
	if _, err := NewGenerator(prof, Params{Noise: math.NaN()}); err == nil {
		t.Error("NaN noise accepted")
	}
	if _, err := NewGenerator(prof, Params{LoopTrips: 1}); err == nil {
		t.Error("loop trips 1 accepted")
	}
	bad := prof.Clone()
	bad.Mix[isa.ClassIntALU] = 5
	if _, err := NewGenerator(bad, Params{}); err == nil {
		t.Error("invalid profile accepted")
	}
	nan := prof.Clone()
	nan.DepDist = math.NaN()
	if _, err := NewGenerator(nan, Params{}); err == nil {
		t.Error("NaN dependency distance accepted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	g := newLeelaGen(t)
	seed := seedFromUint64(42)
	p1, err := g.Generate(seed)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := g.Generate(seed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p1.Encode(), p2.Encode()) {
		t.Fatal("same seed produced different widgets")
	}
}

func TestDifferentSeedsProduceDifferentWidgets(t *testing.T) {
	g := newLeelaGen(t)
	p1, err := g.Generate(seedFromUint64(1))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := g.Generate(seedFromUint64(2))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(p1.Encode(), p2.Encode()) {
		t.Fatal("different seeds produced identical widgets")
	}
}

func TestGeneratedWidgetRunsToCompletion(t *testing.T) {
	g := newLeelaGen(t)
	p, err := g.Generate(seedFromUint64(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("generated widget invalid: %v", err)
	}
	res, err := vm.Run(p, vm.Params{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Fatal("widget hit the instruction budget")
	}
	if res.Retired < 100_000 {
		t.Errorf("widget retired only %d instructions", res.Retired)
	}
}

// TestZeroSeedMatchesBaseProfile: a zero seed adds zero noise, so the
// measured mix should track the profile closely.
func TestZeroSeedMatchesBaseProfile(t *testing.T) {
	prof := leelaProfile(t)
	g, err := NewGenerator(prof, Params{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := g.Generate(Seed{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := uarch.MeasureFunctional("zero", p, vm.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if d := uarch.MixDistance(r.Mix, prof.Mix); d > 0.06 {
		t.Errorf("zero-noise mix distance = %.4f, want <= 0.06\nmeasured: %v", d, r.Mix)
	}
	ratio := float64(r.DynamicInstructions) / float64(prof.TargetDynamic)
	if ratio < 0.93 || ratio > 1.07 {
		t.Errorf("zero-noise dynamic length %d vs target %d (ratio %.3f)",
			r.DynamicInstructions, prof.TargetDynamic, ratio)
	}
}

// TestPositiveNoiseOnly verifies the paper's §V property: seed noise only
// increases non-branch instruction counts, so widgets have at least the
// base counts and proportionally fewer branches.
func TestPositiveNoiseOnly(t *testing.T) {
	prof := leelaProfile(t)
	g, err := NewGenerator(prof, Params{})
	if err != nil {
		t.Fatal(err)
	}
	base, err := g.Generate(Seed{})
	if err != nil {
		t.Fatal(err)
	}
	var baseCount uarch.Counter
	baseRes, err := vm.Run(base, vm.Params{}, &baseCount)
	if err != nil {
		t.Fatal(err)
	}

	for _, seedVal := range []uint64{3, 99, 12345} {
		var seed Seed
		// Saturate the count-noise fields to maximize the effect.
		for i := 0; i < 20; i++ {
			seed[i] = 0xff
		}
		binary.BigEndian.PutUint64(seed[24:], seedVal)
		p, err := g.Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		var count uarch.Counter
		res, err := vm.Run(p, vm.Params{}, &count)
		if err != nil {
			t.Fatal(err)
		}
		if res.Retired <= baseRes.Retired {
			t.Errorf("noised widget (%d) not longer than base (%d)", res.Retired, baseRes.Retired)
		}
		for _, class := range []isa.Class{isa.ClassIntALU, isa.ClassIntMul, isa.ClassFPALU, isa.ClassLoad, isa.ClassStore} {
			if count.Classes[class] < baseCount.Classes[class]*98/100 {
				t.Errorf("class %s count %d fell below base %d",
					class, count.Classes[class], baseCount.Classes[class])
			}
		}
		baseBr := float64(baseCount.Classes[isa.ClassBranch]) / float64(baseRes.Retired)
		gotBr := float64(count.Classes[isa.ClassBranch]) / float64(res.Retired)
		if gotBr >= baseBr {
			t.Errorf("branch fraction did not shrink under positive noise: %.4f vs base %.4f",
				gotBr, baseBr)
		}
	}
}

// TestOutputSizeBand checks the §V observation that widget outputs fall in
// roughly a 20-38 KB band with default snapshotting.
func TestOutputSizeBand(t *testing.T) {
	g := newLeelaGen(t)
	for _, sv := range []uint64{1, 2, 3, 4, 5} {
		p, err := g.Generate(seedFromUint64(sv))
		if err != nil {
			t.Fatal(err)
		}
		res, err := vm.Run(p, vm.Params{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		kb := float64(len(res.Output)) / 1024
		if kb < 18 || kb > 40 {
			t.Errorf("seed %d: output %.1f KB outside the expected band", sv, kb)
		}
	}
}

func TestBranchTakenRateTracksProfile(t *testing.T) {
	prof := leelaProfile(t)
	g, err := NewGenerator(prof, Params{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := g.Generate(seedFromUint64(11))
	if err != nil {
		t.Fatal(err)
	}
	r, err := uarch.MeasureFunctional("w", p, vm.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if diff := r.BranchTaken - prof.BranchTaken; diff > 0.12 || diff < -0.12 {
		t.Errorf("taken rate %.3f vs profile %.3f", r.BranchTaken, prof.BranchTaken)
	}
}

// TestSourcePipelineEquivalence: generating source text and assembling it
// must produce the same widget (and therefore the same output) as direct
// generation — the 3-stage pipeline is just a rendering of the same
// program.
func TestSourcePipelineEquivalence(t *testing.T) {
	g := newLeelaGen(t)
	seed := seedFromUint64(77)
	direct, err := g.Generate(seed)
	if err != nil {
		t.Fatal(err)
	}
	src, err := g.GenerateSource(seed)
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assembling generated source: %v", err)
	}
	if !bytes.Equal(direct.Encode(), compiled.Encode()) {
		t.Fatal("source pipeline produced a different widget than direct generation")
	}
}

// TestGeneratedProgramsAreWhole: the program a hashing session runs — built
// into a reused scratch — is a complete, valid prog.Program like any other:
// it validates, it is field for field the program Generate returns for the
// seed (the two differ only in who owns the storage), and it survives
// Disassemble -> Assemble unchanged. Every profile, one scratch per
// profile reused across seeds as a session reuses its own.
func TestGeneratedProgramsAreWhole(t *testing.T) {
	same := func(t *testing.T, what string, got, want *prog.Program) {
		t.Helper()
		if got.MemSize != want.MemSize || got.MemSeed != want.MemSeed {
			t.Errorf("%s: memory %d/%#x, want %d/%#x", what, got.MemSize, got.MemSeed, want.MemSize, want.MemSeed)
		}
		if !slices.Equal(got.Blocks, want.Blocks) {
			t.Errorf("%s: block table differs", what)
		}
		if !slices.Equal(got.Code, want.Code) {
			t.Errorf("%s: code differs", what)
		}
	}
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			w, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			g, err := NewGenerator(w.Profile, Params{})
			if err != nil {
				t.Fatal(err)
			}
			var sc Scratch
			for s := uint64(0); s < 8; s++ {
				seed := seedFromUint64(s*977 + uint64(len(name)))
				p, err := g.GenerateInto(seed, &sc)
				if err != nil {
					t.Fatal(err)
				}
				if err := p.Validate(); err != nil {
					t.Fatalf("seed %d: the session's program does not validate: %v", s, err)
				}
				if p.NumInstrs() != len(p.Code) || len(p.Code) == 0 {
					t.Fatalf("seed %d: NumInstrs() = %d, len(Code) = %d", s, p.NumInstrs(), len(p.Code))
				}
				owned, err := g.Generate(seed)
				if err != nil {
					t.Fatal(err)
				}
				same(t, "Generate", owned, p)
				assembled, err := asm.Assemble(asm.Disassemble(p))
				if err != nil {
					t.Fatalf("seed %d: Assemble(Disassemble): %v", s, err)
				}
				same(t, "Disassemble -> Assemble", assembled, p)
			}
		})
	}
}

// TestSeedAvalanche: flipping a high-order bit of any Table I field must
// change the widget output. (Low-order bits of the five count-noise fields
// can round away inside an integer instruction budget without changing the
// widget — that is by design and harmless: H = G(s||W(s)) hashes the seed
// itself, so collision resistance never relies on W being injective.)
func TestSeedAvalanche(t *testing.T) {
	g := newLeelaGen(t)
	seed := seedFromUint64(123)
	base, err := g.Generate(seed)
	if err != nil {
		t.Fatal(err)
	}
	baseOut, err := vm.Run(base, vm.Params{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// One near-MSB bit per Table I field: IntALU, IntMul, FPALU, Loads,
	// Stores, Branch, BBV, Mem (plus the Mem LSB, which reseeds memory).
	for _, bit := range []int{0, 33, 65, 100, 129, 161, 200, 230, 255} {
		flipped := seed
		flipped[bit/8] ^= 1 << (bit % 8)
		p, err := g.Generate(flipped)
		if err != nil {
			t.Fatal(err)
		}
		out, err := vm.Run(p, vm.Params{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(out.Output, baseOut.Output) {
			t.Errorf("flipping seed bit %d left the widget output unchanged", bit)
		}
	}
}

// TestAllWorkloadProfilesGenerate exercises the generator against every
// reference profile (including FP-heavy, vector-heavy and near-zero-memory
// mixes).
func TestAllWorkloadProfilesGenerate(t *testing.T) {
	for _, w := range workload.All() {
		t.Run(w.Name, func(t *testing.T) {
			g, err := NewGenerator(w.Profile, Params{})
			if err != nil {
				t.Fatal(err)
			}
			p, err := g.Generate(seedFromUint64(5))
			if err != nil {
				t.Fatal(err)
			}
			res, err := vm.Run(p, vm.Params{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Truncated {
				t.Fatal("widget truncated")
			}
			r, err := uarch.MeasureFunctional(w.Name, p, vm.Params{})
			if err != nil {
				t.Fatal(err)
			}
			// Noised mixes shift, but must stay in the neighbourhood.
			if d := uarch.MixDistance(r.Mix, w.Profile.Mix); d > 0.25 {
				t.Errorf("mix distance %.3f too large\nmeasured %v", d, r.Mix)
			}
		})
	}
}

func TestGenerateQuickProperties(t *testing.T) {
	g := newLeelaGen(t)
	f := func(a, b uint64) bool {
		var seed Seed
		binary.BigEndian.PutUint64(seed[0:], a)
		binary.BigEndian.PutUint64(seed[24:], b)
		p, err := g.Generate(seed)
		if err != nil {
			return false
		}
		if p.Validate() != nil {
			return false
		}
		r1, err := vm.Run(p, vm.Params{}, nil)
		if err != nil {
			return false
		}
		r2, err := vm.Run(p, vm.Params{}, nil)
		if err != nil {
			return false
		}
		return !r1.Truncated && bytes.Equal(r1.Output, r2.Output)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGenerate(b *testing.B) {
	g := newLeelaGen(b)
	for i := 0; i < b.N; i++ {
		if _, err := g.Generate(seedFromUint64(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerateInto is generation as a hashing session does it: one
// scratch reused, a fresh seed every time.
func BenchmarkGenerateInto(b *testing.B) {
	g := newLeelaGen(b)
	var sc Scratch
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := g.GenerateInto(seedFromUint64(uint64(i)), &sc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerateAndRun(b *testing.B) {
	g := newLeelaGen(b)
	for i := 0; i < b.N; i++ {
		p, err := g.Generate(seedFromUint64(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := vm.Run(p, vm.Params{}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMemoryPlanMatchesGenerated pins MemoryPlan's contract: the (size,
// seed) it predicts from the hash seed alone equals the memory
// declaration of the widget that seed generates.
func TestMemoryPlanMatchesGenerated(t *testing.T) {
	g := newLeelaGen(t)
	for i := uint64(0); i < 32; i++ {
		seed := seedFromUint64(i * 0x9e3779b97f4a7c15)
		size, memSeed := g.MemoryPlan(seed)
		p, err := g.Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		if size != p.MemSize || memSeed != p.MemSeed {
			t.Fatalf("seed %d: MemoryPlan = (%d, %#x), generated widget declares (%d, %#x)",
				i, size, memSeed, p.MemSize, p.MemSeed)
		}
	}
}
