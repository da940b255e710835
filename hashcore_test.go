package hashcore

import (
	"bytes"
	"context"
	"errors"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"hashcore/internal/isa"
	"hashcore/internal/profile"
	"hashcore/internal/prog"
	"hashcore/internal/telemetry"
)

// withProfile makes the hasher target p. No exported option can: a profile
// is part of the function, and WithProfile picks a built-in one. Tests use
// it for profiles of their own, small ones so that they stay quick.
func withProfile(p *profile.Profile) Option {
	return func(c *config) error {
		c.prof = p.Clone()
		return nil
	}
}

// withSnapshotInterval overrides the register-snapshot interval (retired
// instructions between snapshots; vm.DefaultSnapshotInterval otherwise).
// The interval is part of the function, so no exported option sets it;
// tests use it to vary output sizes and the golden vectors pin one
// non-default interval.
func withSnapshotInterval(interval uint64) Option {
	return func(c *config) error {
		c.snapshot = interval
		return nil
	}
}

// fastOpts builds a hasher with a small custom profile so public-API tests
// stay quick.
func fastOpts() Option { return withProfile(fastProfile()) }

func fastProfile() *profile.Profile {
	return &profile.Profile{
		Name: "fast",
		Mix: map[isa.Class]float64{
			isa.ClassIntALU: 0.55,
			isa.ClassIntMul: 0.05,
			isa.ClassFPALU:  0.05,
			isa.ClassLoad:   0.12,
			isa.ClassStore:  0.05,
			isa.ClassBranch: 0.15,
			isa.ClassVector: 0.03,
		},
		BranchTaken: 0.6, BranchDataDep: 0.4, BranchBias: 0.5,
		MemSequential: 0.4, MemStrided: 0.2, MemRandom: 0.3, MemPointerChase: 0.1,
		WorkingSet: 4 << 10, BlockMean: 5, BlockStd: 2, DepDist: 3,
		TargetDynamic: 2000,
	}
}

func TestNewDefaults(t *testing.T) {
	h, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if h.ProfileName() != "leela" {
		t.Errorf("default profile = %q, want leela", h.ProfileName())
	}
	if h.Name() != "hashcore-leela" {
		t.Errorf("Name = %q", h.Name())
	}
}

func TestOptionValidation(t *testing.T) {
	nan := fastProfile()
	nan.BlockStd = math.NaN()
	cases := map[string][]Option{
		"unknown profile": {WithProfile("nope")},
		"bad widgets":     {WithWidgets(0)},
		"NaN profile":     {withProfile(nan)},
	}
	for name, opts := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := New(opts...); err == nil {
				t.Error("invalid option accepted")
			}
		})
	}
}

// TestNewValidation: New refuses a widget chain over the limit and a
// custom profile that fails its own validation.
func TestNewValidation(t *testing.T) {
	if _, err := New(fastOpts(), WithWidgets(100)); err == nil {
		t.Error("New accepted 100 widgets")
	}
	bad := fastProfile()
	bad.TargetDynamic = 1
	if _, err := New(withProfile(bad)); err == nil {
		t.Error("New accepted invalid profile")
	}
}

func TestWidgetChainingOption(t *testing.T) {
	h1, err := New(fastOpts(), WithWidgets(1))
	if err != nil {
		t.Fatal(err)
	}
	h2, err := New(fastOpts(), WithWidgets(2))
	if err != nil {
		t.Fatal(err)
	}
	in := []byte("chained")
	if h1.Sum(in) == h2.Sum(in) {
		t.Fatal("widget chaining had no effect")
	}
}

// TestInspectMatchesHash: Inspect must report the digest Hash computes,
// under either backend.
func TestInspectMatchesHash(t *testing.T) {
	for _, backend := range []string{"interp", "native"} {
		h, err := New(fastOpts(), WithBackend(backend))
		if err != nil {
			t.Fatal(err)
		}
		in := []byte("path equivalence")
		ins, err := h.Inspect(in)
		if err != nil {
			t.Fatal(err)
		}
		if ins.Digest != h.Sum(in) {
			t.Fatalf("%s: Inspect's digest differs from Hash's", backend)
		}
	}
}

func TestSumDeterministicAcrossInstances(t *testing.T) {
	h1, err := New(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	h2, err := New(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	in := []byte("the same input")
	if h1.Sum(in) != h2.Sum(in) {
		t.Fatal("two identically configured hashers disagree")
	}
}

func TestProfilesListsWorkloads(t *testing.T) {
	names := Profiles()
	if len(names) < 6 {
		t.Fatalf("Profiles() = %v", names)
	}
	found := false
	for _, n := range names {
		if n == "leela" {
			found = true
		}
	}
	if !found {
		t.Error("leela missing from Profiles()")
	}
}

// TestWidgetIsCallerOwned: Widget returns a whole program, rendered as
// text by prog.Disassemble, in storage no later call or hash reuses.
func TestWidgetIsCallerOwned(t *testing.T) {
	h, err := New(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	in := []byte("header")
	p, err := h.Widget(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("the widget does not validate: %v", err)
	}
	src := prog.Disassemble(p)
	for _, want := range []string{".mem", ".block 0", "halt"} {
		if !strings.Contains(src, want) {
			t.Errorf("widget text missing %q", want)
		}
	}
	enc, digest := p.Encode(), h.Sum(in)
	clear(p.Code)
	again, err := h.Widget(in)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Encode(), enc) || h.Sum(in) != digest {
		t.Fatal("overwriting a returned widget changed a later Widget or Hash")
	}
}

func TestInspect(t *testing.T) {
	h, err := New(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	info, err := h.Inspect([]byte("header"))
	if err != nil {
		t.Fatal(err)
	}
	if info.StaticInstructions == 0 || info.DynamicInstructions == 0 || info.OutputBytes == 0 {
		t.Errorf("inspection has empty fields: %+v", info)
	}
	if got := h.Sum([]byte("header")); got != info.Digest {
		t.Error("Inspect digest != Sum digest")
	}
}

func TestMineAndVerifyNonce(t *testing.T) {
	h, err := New(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	target := TargetWithZeroBits(4) // ~16 expected attempts
	res, err := h.Mine(context.Background(), []byte("block"), target, 2)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := h.VerifyNonce([]byte("block"), res.Nonce, target)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("mined nonce failed verification")
	}
	ok, err = h.VerifyNonce([]byte("block"), res.Nonce+1, target)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("wrong nonce verified (very unlikely)")
	}
}

func TestMineRangeRespectsWindow(t *testing.T) {
	h, err := New(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	// An impossible target with a small budget must spend exactly the
	// budget and report exhaustion — the contract a pool client's
	// assigned nonce window relies on.
	var impossible [32]byte
	const budget = 40
	_, err = h.MineRange(context.Background(), []byte("win"), impossible, 2, 1000, budget)
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v, want ErrExhausted", err)
	}

	// A findable target inside the window: the nonce must come from at or
	// after the window start, and the result must verify.
	target := TargetWithZeroBits(4) // ~16 expected attempts
	const start = 1 << 20
	res, err := h.MineRange(context.Background(), []byte("win"), target, 2, start, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Nonce < start {
		t.Errorf("nonce %d below window start %d", res.Nonce, start)
	}
	ok, err := h.VerifyNonce([]byte("win"), res.Nonce, target)
	if err != nil || !ok {
		t.Fatalf("windowed nonce failed verification: ok=%v err=%v", ok, err)
	}
	if res.Attempts == 0 {
		t.Error("no attempts recorded")
	}
}

// TestMineRangeReusesSessions: MineRange hashes through the hasher's
// pooled sessions, so once one call has filled the pool, later calls
// build no session — no JIT mapping, word table or generator scratch — as
// a pool miner calling it once per share relies on. One worker on one P
// with the collector off keeps the pool's contents where the next call
// looks for them.
func TestMineRangeReusesSessions(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a share of what it is given under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	reg := telemetry.NewRegistry()
	h, err := New(fastOpts(), WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	var impossible [32]byte
	mine := func(start uint64) {
		if _, err := h.MineRange(context.Background(), []byte("reuse"), impossible, 1, start, 16); !errors.Is(err, ErrExhausted) {
			t.Fatalf("err = %v, want ErrExhausted", err)
		}
	}
	mine(0)
	warm, _ := reg.Value("hashcore_sessions_created_total")
	for i := uint64(1); i <= 5; i++ {
		mine(16 * i)
	}
	if got, _ := reg.Value("hashcore_sessions_created_total"); got != warm || warm == 0 {
		t.Errorf("sessions created: %v after the warm-up call, %v after five more; want the same, above 0", warm, got)
	}
}

func TestMineCancellation(t *testing.T) {
	h, err := New(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var impossible [32]byte // zero target
	if _, err := h.Mine(ctx, []byte("x"), impossible, 1); err == nil {
		t.Fatal("cancelled mine returned success")
	}
}

func TestTargetWithZeroBits(t *testing.T) {
	t0 := TargetWithZeroBits(0)
	if t0[0] == 0 {
		t.Error("0-bit target should be near max")
	}
	t8 := TargetWithZeroBits(8)
	if t8[0] != 0 || t8[1] != 0xff {
		t.Errorf("8-bit target = %x", t8[:4])
	}
	if TargetWithZeroBits(300) == ([32]byte{}) {
		t.Error("clamped target should be non-zero")
	}
}

func TestSnapshotIntervalChangesOutputSize(t *testing.T) {
	coarse, err := New(fastOpts(), withSnapshotInterval(4096))
	if err != nil {
		t.Fatal(err)
	}
	fine, err := New(fastOpts(), withSnapshotInterval(256))
	if err != nil {
		t.Fatal(err)
	}
	in := []byte("x")
	ci, err := coarse.Inspect(in)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := fine.Inspect(in)
	if err != nil {
		t.Fatal(err)
	}
	if fi.OutputBytes <= ci.OutputBytes {
		t.Errorf("finer snapshots should grow output: %d vs %d", fi.OutputBytes, ci.OutputBytes)
	}
}
