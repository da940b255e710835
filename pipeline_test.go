package hashcore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"strconv"
	"sync"
	"testing"

	"hashcore/internal/gate"
	"hashcore/internal/perfprox"
	"hashcore/internal/vm"
)

// withGate swaps the hash gate G. Only the Theorem 1 tests do, to run the
// reduction against a deliberately weakened gate; no exported option can.
func withGate(g gate.Gate) Option {
	return func(c *config) error {
		c.gate = g
		return nil
	}
}

// fastHasher builds a hasher on fastProfile (unless opts replace it).
func fastHasher(t testing.TB, opts ...Option) *Hasher {
	t.Helper()
	h, err := New(append([]Option{fastOpts()}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// onBackend pins h to engine b whatever HASHCORE_BACKEND says, for the
// tests that are about one engine. Call it before h makes a session.
func onBackend(h *Hasher, b vm.Backend) *Hasher {
	h.backend = b
	return h
}

func TestHashDeterministic(t *testing.T) {
	h := fastHasher(t)
	a, err := h.Hash([]byte("block header"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Hash([]byte("block header"))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("same input hashed to different digests")
	}
	c, err := h.Hash([]byte("block headeR"))
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatal("different inputs hashed to the same digest")
	}
}

func TestHashConcurrentUse(t *testing.T) {
	h := fastHasher(t)
	want := h.Sum([]byte("shared"))
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := h.Hash([]byte("shared"))
			if err != nil {
				errs <- err
				return
			}
			if got != want {
				errs <- bytes.ErrTooLarge // sentinel misuse avoided below
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent hashing failed: %v", err)
	}
}

// TestStructuralEquation verifies H(x) == G(s || W(s)) by recomputing the
// final gate application from Trace intermediates.
func TestStructuralEquation(t *testing.T) {
	h := fastHasher(t)
	tr, err := h.trace([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	g := gate.SHA256{}
	msg := append(append([]byte(nil), tr.Seed[:]...), tr.Result.Output...)
	manual := g.Sum(msg)
	if manual != tr.Digest {
		t.Fatal("Trace digest != G(s || W(s))")
	}
	direct, err := h.Hash([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if direct != tr.Digest {
		t.Fatal("Trace digest != Hash digest")
	}
	if tr.Seed != g.Sum([]byte("x")) {
		t.Fatal("Trace seed != G(x)")
	}
}

func TestTraceFields(t *testing.T) {
	h := fastHasher(t)
	tr, err := h.trace([]byte("inspect me"))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Source == "" {
		t.Error("trace has no source text")
	}
	if tr.Widget == nil || tr.Widget.NumInstrs() == 0 {
		t.Error("trace has no widget")
	}
	if tr.Result == nil || len(tr.Result.Output) == 0 {
		t.Error("trace has no execution result")
	}
	if binary.BigEndian.Uint32(tr.Seed[0:4]) != perfprox.Split(tr.Seed).IntALU {
		t.Error("field/seed byte mismatch")
	}
}

// TestSourcePipelineMatchesDirect: the textual chain trace takes (generate,
// render, assemble, run) reaches the digest Hash computes from the
// generator's program directly, on either backend and with widgets chained
// (trace runs the first widget through source, the rest directly).
func TestSourcePipelineMatchesDirect(t *testing.T) {
	for _, backend := range []vm.Backend{vm.BackendInterp, vm.BackendNative} {
		for _, widgets := range []int{1, 2} {
			h := onBackend(fastHasher(t, WithWidgets(widgets)), backend)
			for _, input := range []string{"", "a", "block 42"} {
				direct, err := h.Hash([]byte(input))
				if err != nil {
					t.Fatal(err)
				}
				tr, err := h.trace([]byte(input))
				if err != nil {
					t.Fatal(err)
				}
				if tr.Digest != direct {
					t.Fatalf("%s, %d widgets, input %q: source pipeline digest differs from direct", backend, widgets, input)
				}
			}
		}
	}
}

// TestWidgetChaining: WithWidgets(2) changes the digest, deterministically,
// and trace follows the chain to Hash's digest.
func TestWidgetChaining(t *testing.T) {
	one := fastHasher(t, WithWidgets(1))
	two := fastHasher(t, WithWidgets(2))
	in := []byte("chained")
	d1, err := one.Hash(in)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := two.Hash(in)
	if err != nil {
		t.Fatal(err)
	}
	if d1 == d2 {
		t.Fatal("1-widget and 2-widget digests coincide")
	}
	d2b, err := two.Hash(in)
	if err != nil {
		t.Fatal(err)
	}
	if d2 != d2b {
		t.Fatal("chained hashing is nondeterministic")
	}
	trTwo, err := two.trace(in)
	if err != nil {
		t.Fatal(err)
	}
	if trTwo.Digest != d2 {
		t.Fatal("chained trace digest != Hash")
	}
}

func TestHashObserved(t *testing.T) {
	h := fastHasher(t)
	var count countObserver
	d, err := h.NewSession().hash([]byte("obs"), &count, nil)
	if err != nil {
		t.Fatal(err)
	}
	if count == 0 {
		t.Fatal("observer saw no events")
	}
	plain, err := h.Hash([]byte("obs"))
	if err != nil {
		t.Fatal(err)
	}
	if d != plain {
		t.Fatal("observed hash differs from plain hash")
	}
}

type countObserver int

func (c *countObserver) OnRetire(*vm.Event) { *c++ }

func TestAccessors(t *testing.T) {
	h := fastHasher(t)
	if got := h.gate.Name(); got != "sha256" {
		t.Errorf("gate name = %q", got)
	}
	if h.ProfileName() != "fast" {
		t.Errorf("ProfileName = %q", h.ProfileName())
	}
}

// truncatedGate is a deliberately weakened gate for testing the Theorem 1
// reduction: it keeps only Bits bits of SHA-256 entropy (the rest of the
// digest is a deterministic expansion of those bits). Collisions can be
// found by brute force in about 2^(Bits/2) queries, which lets tests
// exercise the collision-extraction algorithm B from the paper's appendix.
// It is NOT collision resistant by construction, so it lives here, beside
// its one user.
type truncatedGate struct {
	// Bits is the number of effective entropy bits, 1..64 (0 means 16).
	Bits uint
}

var _ gate.Gate = truncatedGate{}

func (t truncatedGate) bits() uint {
	if t.Bits == 0 || t.Bits > 64 {
		return 16
	}
	return t.Bits
}

// Sum truncates SHA-256(msg) to t.Bits bits and re-expands them to 32
// bytes through SHA-256, so downstream code sees a full-size seed that
// depends only on the kept bits.
func (t truncatedGate) Sum(msg []byte) [gate.SeedSize]byte {
	full := sha256.Sum256(msg)
	kept := binary.BigEndian.Uint64(full[:8])
	if b := t.bits(); b < 64 {
		kept &= (1 << b) - 1
	}
	return sha256.Sum256(binary.BigEndian.AppendUint64(nil, kept))
}

// Name records the truncation width.
func (t truncatedGate) Name() string {
	return "sha256-truncated-" + strconv.FormatUint(uint64(t.bits()), 10)
}

func TestTruncatedIsDeterministic(t *testing.T) {
	g := truncatedGate{Bits: 8}
	a := g.Sum([]byte("x"))
	b := g.Sum([]byte("x"))
	if a != b {
		t.Fatal("truncated gate is not deterministic")
	}
	for _, tt := range []struct {
		g    truncatedGate
		want string
	}{
		{truncatedGate{Bits: 12}, "sha256-truncated-12"},
		{truncatedGate{}, "sha256-truncated-16"},
	} {
		if got := tt.g.Name(); got != tt.want {
			t.Errorf("Name() = %q, want %q", got, tt.want)
		}
	}
}

// TestTruncatedCollidesQuickly verifies the gate is actually weak: with 8
// bits of entropy there are at most 256 distinct outputs, so 257 distinct
// inputs must contain a collision (pigeonhole).
func TestTruncatedCollidesQuickly(t *testing.T) {
	g := truncatedGate{Bits: 8}
	seen := make(map[[gate.SeedSize]byte][]byte)
	for i := 0; i < 257; i++ {
		msg := []byte{byte(i), byte(i >> 8), 0xaa}
		d := g.Sum(msg)
		if _, ok := seen[d]; ok {
			return // collision found, as expected
		}
		seen[d] = msg
	}
	t.Fatal("no collision among 257 inputs to an 8-bit gate")
}

// TestTruncatedOutputCount verifies the number of distinct outputs is
// bounded by 2^Bits.
func TestTruncatedOutputCount(t *testing.T) {
	g := truncatedGate{Bits: 4}
	outputs := make(map[[gate.SeedSize]byte]bool)
	for i := 0; i < 4096; i++ {
		outputs[g.Sum([]byte{byte(i), byte(i >> 8)})] = true
	}
	if len(outputs) > 16 {
		t.Fatalf("4-bit truncated gate produced %d distinct outputs, want <= 16", len(outputs))
	}
}

// TestTheorem1Reduction is the executable version of the paper's security
// proof: with a deliberately weakened gate we can find collisions on H by
// brute force, and algorithm B (extractGateCollision) must then produce a
// collision on G itself.
func TestTheorem1Reduction(t *testing.T) {
	weak := truncatedGate{Bits: 12}
	h := fastHasher(t, withGate(weak))

	// Brute-force a collision on H (about 2^6 expected queries for a
	// 12-bit gate via birthday).
	seen := make(map[Digest][]byte)
	var x0, x1 []byte
	for i := 0; i < 1<<14 && x1 == nil; i++ {
		input := binary.BigEndian.AppendUint32(nil, uint32(i))
		d, err := h.Hash(input)
		if err != nil {
			t.Fatal(err)
		}
		if prev, ok := seen[d]; ok {
			x0, x1 = prev, input
			break
		}
		seen[d] = input
	}
	if x1 == nil {
		t.Fatal("no collision found on H with a 12-bit gate — that should be easy")
	}

	a, b, ok, err := h.extractGateCollision(x0, x1)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("extractGateCollision rejected a genuine H collision")
	}
	if bytes.Equal(a, b) {
		t.Fatal("reduction returned identical messages")
	}
	if weak.Sum(a) != weak.Sum(b) {
		t.Fatal("reduction output is not a collision on G — Theorem 1 violated")
	}
}

func TestExtractGateCollisionRejectsNonCollisions(t *testing.T) {
	h := fastHasher(t)
	if _, _, ok, err := h.extractGateCollision([]byte("a"), []byte("b")); err != nil || ok {
		t.Fatalf("non-collision accepted (ok=%v, err=%v)", ok, err)
	}
	if _, _, ok, err := h.extractGateCollision([]byte("same"), []byte("same")); err != nil || ok {
		t.Fatalf("identical inputs accepted (ok=%v, err=%v)", ok, err)
	}
}

func TestTheorem1ReductionChained(t *testing.T) {
	weak := truncatedGate{Bits: 10}
	h := fastHasher(t, withGate(weak), WithWidgets(2))
	seen := make(map[Digest][]byte)
	var x0, x1 []byte
	for i := 0; i < 1<<13 && x1 == nil; i++ {
		input := binary.BigEndian.AppendUint32(nil, uint32(i))
		d, err := h.Hash(input)
		if err != nil {
			t.Fatal(err)
		}
		if prev, ok := seen[d]; ok {
			x0, x1 = prev, input
			break
		}
		seen[d] = input
	}
	if x1 == nil {
		t.Fatal("no collision found on chained H with a 10-bit gate")
	}
	a, b, ok, err := h.extractGateCollision(x0, x1)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || bytes.Equal(a, b) || weak.Sum(a) != weak.Sum(b) {
		t.Fatal("chained reduction failed to produce a gate collision")
	}
}

func TestLeelaProfileHash(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size widget hash in -short mode")
	}
	h, err := New(WithProfile("leela"))
	if err != nil {
		t.Fatal(err)
	}
	d, err := h.Hash([]byte("full scale"))
	if err != nil {
		t.Fatal(err)
	}
	if d == (Digest{}) {
		t.Fatal("zero digest")
	}
}

func BenchmarkHashTiny(b *testing.B) {
	h := fastHasher(b)
	var input [8]byte
	for i := 0; i < b.N; i++ {
		binary.BigEndian.PutUint64(input[:], uint64(i))
		if _, err := h.Hash(input[:]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestHashTimedMatchesHash asserts the instrumented session path produces
// bit-identical digests to the plain one and accumulates a sane phase
// split: both phases nonzero, retired counted, one accumulation per call.
func TestHashTimedMatchesHash(t *testing.T) {
	h := fastHasher(t)
	s := h.NewSession()
	var pt PhaseTimings
	for i := 0; i < 3; i++ {
		input := []byte{byte(i), 1, 2, 3}
		want, err := h.Hash(input)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.HashTimed(input, &pt)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("input %d: HashTimed digest %x != Hash digest %x", i, got, want)
		}
	}
	if pt.Hashes != 3 {
		t.Errorf("PhaseTimings.Hashes = %d, want 3", pt.Hashes)
	}
	if pt.GenNs <= 0 || pt.ExecNs <= 0 {
		t.Errorf("phase split not accumulated: gen %d ns, exec %d ns", pt.GenNs, pt.ExecNs)
	}
	if pt.Retired == 0 {
		t.Error("PhaseTimings.Retired = 0, want > 0")
	}
	// The compile is a part of exec on the native engine, and absent on
	// the interpreter.
	if native := s.m.LastRunStats().Backend == vm.BackendNative; native != (pt.CompileNs > 0) || pt.CompileNs >= pt.ExecNs {
		t.Errorf("native = %v: CompileNs = %d of ExecNs = %d", native, pt.CompileNs, pt.ExecNs)
	}
}
