// Package hashcore is a Go implementation of HashCore, the Proof-of-Work
// function of "HashCore: Proof-of-Work Functions for General Purpose
// Processors" (Georghiades, Flolid, Vishwanath — ICDCS 2019).
//
// HashCore hashes an input by (1) passing it through a hash gate
// (SHA-256) to obtain a 256-bit seed, (2) pseudo-randomly generating a
// short program — a widget — whose execution profile matches a reference
// CPU workload perturbed by that seed ("inverted benchmarking"),
// (3) executing the widget and collecting its register-snapshot output,
// and (4) gating seed‖output into the final digest (Figure 1 of the
// paper):
//
//	input ──G──> seed s ──(widget generation W)──> widget output
//	                │                                   │
//	                └────────────── s ║ W(s) ──────G──> digest
//
// Formally H(x) = G(s || W(s)) with s = G(x), where G is the hash gate and
// W is widget generation + execution. Theorem 1 of the paper proves H is
// collision-resistant when G is, regardless of how widgets behave;
// extractGateCollision implements the constructive reduction (algorithm B)
// from that proof, and the tests run it against a deliberately weakened
// gate.
//
// This reproduction runs widgets on a deterministic synthetic machine
// rather than native x86 (see DESIGN.md for the substitution argument),
// so digests are portable and verifiable across platforms.
//
// # Quick start
//
//	h, err := hashcore.New()                    // Leela profile, defaults
//	if err != nil { ... }
//	digest := h.Sum([]byte("block header"))
//
// Use WithProfile to target another reference workload, and Mine /
// VerifyNonce for blockchain-style usage.
package hashcore

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"os"
	"sync"

	"hashcore/internal/asm"
	"hashcore/internal/gate"
	"hashcore/internal/perfprox"
	"hashcore/internal/pow"
	"hashcore/internal/profile"
	"hashcore/internal/prog"
	"hashcore/internal/telemetry"
	"hashcore/internal/vm"
	"hashcore/internal/workload"
)

// DigestSize is the digest size in bytes.
const DigestSize = gate.SeedSize

// Digest is a HashCore digest.
type Digest = [DigestSize]byte

// config collects the functional-option state.
type config struct {
	gate        gate.Gate
	profileName string
	prof        *profile.Profile
	widgets     int
	snapshot    uint64
	noise       float64
	loopTrips   int
	backend     vm.Backend
	metrics     *telemetry.Registry
	journal     *telemetry.Journal
}

// Option configures New.
type Option func(*config) error

// WithProfile selects a built-in reference workload profile by name
// (see Profiles). The default is "leela", the workload the paper's
// experiments use.
func WithProfile(name string) Option {
	return func(c *config) error {
		c.profileName = name
		return nil
	}
}

// WithCustomProfile supplies a caller-constructed profile (advanced use:
// targeting a different GPP per the paper's §VI-B is done by swapping the
// profile).
func WithCustomProfile(p *profile.Profile) Option {
	return func(c *config) error {
		if p == nil {
			return errors.New("hashcore: nil profile")
		}
		c.prof = p.Clone()
		return nil
	}
}

// WithWidgets chains n widgets sequentially per hash (default 1, as in
// the paper's Figure 1; the paper notes "multiple widgets could be
// generated ... and executed sequentially").
func WithWidgets(n int) Option {
	return func(c *config) error {
		if n < 1 || n > 64 {
			return fmt.Errorf("hashcore: widget count %d out of range [1,64]", n)
		}
		c.widgets = n
		return nil
	}
}

// WithSnapshotInterval overrides the register-snapshot interval (retired
// instructions between snapshots). Smaller intervals produce larger widget
// outputs. The default (2048) lands outputs in the paper's 20-38 KB band.
func WithSnapshotInterval(interval uint64) Option {
	return func(c *config) error {
		if interval == 0 {
			return errors.New("hashcore: snapshot interval must be positive")
		}
		c.snapshot = interval
		return nil
	}
}

// WithNoise overrides the maximum fractional positive noise the hash seed
// adds to widget instruction-class budgets (default 0.5).
func WithNoise(noise float64) Option {
	return func(c *config) error {
		if !(noise >= 0 && noise <= 4) { // NaN fails too
			return fmt.Errorf("hashcore: noise %v out of range [0,4]", noise)
		}
		c.noise = noise
		return nil
	}
}

// WithLoopTrips overrides the widget outer-loop trip count (default 64),
// trading static code footprint against per-iteration work.
func WithLoopTrips(trips int) Option {
	return func(c *config) error {
		if trips < 2 || trips > 1<<16 {
			return fmt.Errorf("hashcore: loop trips %d out of range", trips)
		}
		c.loopTrips = trips
		return nil
	}
}

// WithBackend selects the widget execution engine: "native" (the
// default — native machine code where the platform supports it, the
// fused interpreter elsewhere; "" and "auto" mean the same) or
// "interp". Digests are bit-identical across backends; only throughput
// differs. The HASHCORE_BACKEND
// environment variable, when set, overrides this option — an operational
// escape hatch to force the interpreter fleet-wide without a rebuild.
func WithBackend(mode string) Option {
	return func(c *config) error {
		b, err := vm.ParseBackend(mode)
		if err != nil {
			return fmt.Errorf("hashcore: %w", err)
		}
		c.backend = b
		return nil
	}
}

// NativeBackendSupported reports whether this platform can execute
// widgets as native machine code ("native" falls back to the interpreter
// elsewhere).
func NativeBackendSupported() bool { return vm.NativeSupported() }

// WithJournal routes structured events (currently jit_fallback, emitted
// once when a native-capable backend falls back to the interpreter) to j.
// A nil journal disables event emission (the default).
func WithJournal(j *telemetry.Journal) Option {
	return func(c *config) error {
		c.journal = j
		return nil
	}
}

// WithTelemetry instruments every hash through reg: latency histograms
// (end-to-end plus the gen/exec phase split), retired-instruction and
// fusion-ratio counters — the hashcore_* metric family (DESIGN.md §12).
// The record path is allocation-free and adds only clock reads and
// atomic updates, so hashing throughput is unaffected within noise
// (telemetry.trace_overhead_pct in benchmark/ measures the delta). A nil
// reg disables instrumentation (the default).
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(c *config) error {
		c.metrics = reg
		return nil
	}
}

// Hasher is an instantiated HashCore function. Its configuration is
// immutable and it is safe for concurrent use: each Hash call checks a
// reusable execution context (Session) out of an internal pool, so
// steady-state hashing allocates nothing while the API stays a plain
// function call. It satisfies the PoW-hasher shape used by Mine.
type Hasher struct {
	gate    gate.Gate
	gen     *perfprox.Generator
	vparams vm.Params
	widgets int
	backend vm.Backend
	met     *hashMetrics       // nil when telemetry is disabled
	journal *telemetry.Journal // nil-safe; jit_fallback events

	fellBack sync.Once // jit_fallback is journaled once per Hasher
	sessions sync.Pool // of *Session
}

// New builds a HashCore hasher. With no options it targets the Leela
// profile with the paper's defaults.
func New(opts ...Option) (*Hasher, error) {
	cfg := config{gate: gate.SHA256{}, profileName: "leela", widgets: 1}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	if env := os.Getenv("HASHCORE_BACKEND"); env != "" {
		b, err := vm.ParseBackend(env)
		if err != nil {
			return nil, fmt.Errorf("hashcore: HASHCORE_BACKEND: %w", err)
		}
		cfg.backend = b
	}
	prof := cfg.prof
	if prof == nil {
		w, err := workload.ByName(cfg.profileName)
		if err != nil {
			return nil, fmt.Errorf("hashcore: %w", err)
		}
		prof = w.Profile
	}
	gen, err := perfprox.NewGenerator(prof, perfprox.Params{Noise: cfg.noise, LoopTrips: cfg.loopTrips})
	if err != nil {
		return nil, fmt.Errorf("hashcore: %w", err)
	}
	h := &Hasher{
		gate:    cfg.gate,
		gen:     gen,
		vparams: vm.Params{SnapshotInterval: cfg.snapshot},
		widgets: cfg.widgets,
		backend: cfg.backend,
		met:     newHashMetrics(cfg.metrics),
		journal: cfg.journal,
	}
	h.sessions.New = func() any { return h.NewSession() }
	return h, nil
}

// noteFallback journals the first native-to-interpreter fallback of this
// Hasher's lifetime. Every session of a Hasher compiles the same
// instruction set, so one event carries all the signal without flooding
// the journal at hash rate.
func (h *Hasher) noteFallback(err error) {
	h.fellBack.Do(func() {
		h.journal.Emit("jit_fallback", map[string]any{
			"error":   err.Error(),
			"profile": h.gen.Profile().Name,
		})
	})
}

// Hash computes H(x) = G(s || W(s)) with s = G(x). With WithWidgets(n)
// the construction is iterated: s_{i+1} = G(s_i || W(s_i)), and the final
// digest is the last gate output.
//
// Hash services the call from a pooled Session, so concurrent and
// repeated calls reach a zero-allocation steady state without the caller
// managing sessions explicitly.
func (h *Hasher) Hash(input []byte) (Digest, error) {
	s := h.session()
	d, err := s.hash(input, nil, nil)
	h.sessions.Put(s)
	return d, err
}

func (h *Hasher) session() *Session {
	return h.sessions.Get().(*Session)
}

// Sum is Hash without the error return; it panics only on internal
// invariant violations — resource exhaustion or a bug (the generator
// always emits valid programs — property-tested), never on any input
// value.
func (h *Hasher) Sum(input []byte) Digest {
	d, err := h.Hash(input)
	if err != nil {
		panic(fmt.Sprintf("hashcore: internal pipeline failure: %v", err))
	}
	return d
}

// Name identifies the hasher, e.g. "hashcore-leela".
func (h *Hasher) Name() string { return "hashcore-" + h.ProfileName() }

// ProfileName returns the target profile's name.
func (h *Hasher) ProfileName() string { return h.gen.Profile().Name }

// trace holds every intermediate of a hash computation. Source, Widget
// and Result describe the first widget in the chain; Digest always equals
// Hash of the input.
type trace struct {
	Seed   perfprox.Seed
	Source string
	Widget *prog.Program
	Result *vm.Result
	Digest Digest
}

// trace runs the full pipeline for input, retaining intermediates. Where
// Hash runs the generator's program directly, trace takes the textual
// chain — generate, render as source, assemble, run: the analogue of the
// paper's script -> C -> binary pipeline — so Source is the exact text
// that was compiled and executed. Both reach the same digest
// (TestSourcePipelineMatchesDirect).
func (h *Hasher) trace(input []byte) (*trace, error) {
	seedArr := h.gate.Sum(input)
	seed := perfprox.Seed(seedArr)
	src, err := h.gen.GenerateSource(seed)
	if err != nil {
		return nil, err
	}
	widget, err := asm.Assemble(src)
	if err != nil {
		return nil, fmt.Errorf("hashcore: compiling generated source: %w", err)
	}
	m := &vm.Machine{}
	m.SetBackend(h.backend)
	if err := m.Load(widget); err != nil {
		return nil, err
	}
	res := m.Run(h.vparams, nil)
	buf := make([]byte, 0, len(seedArr)+len(res.Output))
	buf = append(buf, seedArr[:]...)
	buf = append(buf, res.Output...)
	cur := h.gate.Sum(buf)

	// Iterate the remaining widgets if chaining is configured, so the
	// reported digest always equals Hash(input).
	for i := 1; i < h.widgets; i++ {
		msg, err := h.gateMessage(cur)
		if err != nil {
			return nil, err
		}
		cur = h.gate.Sum(msg)
	}

	return &trace{
		Seed:   seed,
		Source: src,
		Widget: widget,
		Result: res,
		Digest: cur,
	}, nil
}

// WidgetSource returns the assembly text of the widget that input selects
// — the reproduction's analogue of the generated C program.
func (h *Hasher) WidgetSource(input []byte) (string, error) {
	tr, err := h.trace(input)
	if err != nil {
		return "", err
	}
	return tr.Source, nil
}

// Inspection describes one hash evaluation's intermediates.
type Inspection struct {
	// Seed is the hash seed G(input).
	Seed [32]byte
	// StaticInstructions is the widget's static code size.
	StaticInstructions int
	// DynamicInstructions is the retired instruction count.
	DynamicInstructions uint64
	// OutputBytes is the widget output (snapshot stream) size.
	OutputBytes int
	// Digest is the final HashCore digest.
	Digest Digest
}

// Inspect runs the pipeline for input and reports its intermediates.
func (h *Hasher) Inspect(input []byte) (*Inspection, error) {
	tr, err := h.trace(input)
	if err != nil {
		return nil, err
	}
	return &Inspection{
		Seed:                tr.Seed,
		StaticInstructions:  tr.Widget.NumInstrs(),
		DynamicInstructions: tr.Result.Retired,
		OutputBytes:         len(tr.Result.Output),
		Digest:              tr.Digest,
	}, nil
}

// extractGateCollision is algorithm B from the paper's Theorem 1 proof:
// given a collision (x0, x1) on H, it produces a collision on the hash
// gate G with certainty. It returns ok=false if (x0, x1) is not actually a
// collision on H.
//
//	Case 1: G(x0) == G(x1) -> (x0, x1) collide on G directly.
//	Case 2: seeds differ   -> (s0||W(s0), s1||W(s1)) collide on the
//	                          second gate application (walking the chain
//	                          for multi-widget configurations).
func (h *Hasher) extractGateCollision(x0, x1 []byte) (a, b []byte, ok bool, err error) {
	if string(x0) == string(x1) {
		return nil, nil, false, nil
	}
	h0, err := h.Hash(x0)
	if err != nil {
		return nil, nil, false, err
	}
	h1, err := h.Hash(x1)
	if err != nil {
		return nil, nil, false, err
	}
	if h0 != h1 {
		return nil, nil, false, nil
	}

	s0 := h.gate.Sum(x0)
	s1 := h.gate.Sum(x1)
	if s0 == s1 {
		// Case 1: the first gate collided.
		return append([]byte(nil), x0...), append([]byte(nil), x1...), true, nil
	}
	// Case 2: some later gate application collided; walk the chain until
	// the gate outputs meet (guaranteed by H(x0) == H(x1)).
	m0, err := h.gateMessage(s0)
	if err != nil {
		return nil, nil, false, err
	}
	m1, err := h.gateMessage(s1)
	if err != nil {
		return nil, nil, false, err
	}
	for i := 1; i < h.widgets; i++ {
		c0, c1 := h.gate.Sum(m0), h.gate.Sum(m1)
		if c0 == c1 {
			break
		}
		m0, err = h.gateMessage(c0)
		if err != nil {
			return nil, nil, false, err
		}
		m1, err = h.gateMessage(c1)
		if err != nil {
			return nil, nil, false, err
		}
	}
	return m0, m1, true, nil
}

// gateMessage returns s || W(s), the message fed to the next gate, in a
// buffer of its own. Cold paths (trace, the collision reduction) use it
// on a pooled session; the hot path stays on Session.runWidget.
func (h *Hasher) gateMessage(s Digest) ([]byte, error) {
	ses := h.session()
	defer h.sessions.Put(ses)
	if err := ses.runWidget(perfprox.Seed(s), nil, nil); err != nil {
		return nil, err
	}
	out := ses.res.Output
	return append(append(make([]byte, 0, len(s)+len(out)), s[:]...), out...), nil
}

// Profiles lists the built-in reference workload profiles.
func Profiles() []string { return workload.Names() }

// MineResult is a successful nonce search.
type MineResult struct {
	Nonce    uint64
	Digest   Digest
	Attempts uint64
}

// TargetWithZeroBits returns a difficulty target requiring roughly 2^bits
// hash evaluations (bits leading zero bits in the digest).
func TargetWithZeroBits(bits uint) [32]byte {
	if bits > 255 {
		bits = 255
	}
	v := new(big.Int).Rsh(new(big.Int).Lsh(big.NewInt(1), 256), bits)
	v.Sub(v, big.NewInt(1))
	t := pow.FromBig(v)
	return [32]byte(t)
}

// powAdapter adapts Hasher to pow.SessionHasher, so miner workers each
// run on a dedicated execution context.
type powAdapter struct{ *Hasher }

func (a powAdapter) NewSession() pow.Hasher { return a.Hasher.NewSession() }

// ErrExhausted is returned by MineRange when the attempt budget was spent
// without finding a valid digest.
var ErrExhausted = pow.ErrExhausted

// Mine searches for a nonce such that Hash(prefix || nonce_le64) meets the
// target, using the given number of worker goroutines. It returns early
// with ctx.Err() on cancellation.
func (h *Hasher) Mine(ctx context.Context, prefix []byte, target [32]byte, workers int) (MineResult, error) {
	return h.MineRange(ctx, prefix, target, workers, 0, 0)
}

// MineRange is Mine with an explicit nonce window: the search starts at
// start and evaluates at most maxAttempts nonces (0 means unbounded),
// returning ErrExhausted when the budget is spent without a hit. This is
// how a pool miner works its assigned slice of the nonce space: with
// budget end-start the search stays (approximately, up to worker stride
// at the window edge) within [start, end). Result.Attempts is the exact
// number of hash evaluations performed.
func (h *Hasher) MineRange(ctx context.Context, prefix []byte, target [32]byte, workers int, start, maxAttempts uint64) (MineResult, error) {
	miner := pow.NewMiner(powAdapter{h}, workers)
	res, err := miner.Mine(ctx, prefix, pow.Target(target), start, maxAttempts)
	if err != nil {
		return MineResult{}, err
	}
	return MineResult{Nonce: res.Nonce, Digest: res.Digest, Attempts: res.Attempts}, nil
}

// VerifyNonce checks a previously mined nonce — the cheap path a
// validating node runs.
func (h *Hasher) VerifyNonce(prefix []byte, nonce uint64, target [32]byte) (bool, error) {
	return pow.Verify(powAdapter{h}, prefix, nonce, pow.Target(target))
}
