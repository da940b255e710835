// Package hashcore is a Go implementation of HashCore, the Proof-of-Work
// function of "HashCore: Proof-of-Work Functions for General Purpose
// Processors" (Georghiades, Flolid, Vishwanath — ICDCS 2019).
//
// HashCore hashes an input by (1) passing it through a hash gate
// (SHA-256) to obtain a 256-bit seed, (2) pseudo-randomly generating a
// short program — a widget — whose execution profile matches a reference
// CPU workload perturbed by that seed ("inverted benchmarking"),
// (3) executing the widget and collecting its register-snapshot output,
// and (4) gating seed‖output into the final digest:
//
//	H(x) = G(s || W(s)),   s = G(x)
//
// Collision resistance of H reduces to that of G (Theorem 1 of the paper)
// regardless of how widgets behave.
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

	"hashcore/internal/core"
	"hashcore/internal/gate"
	"hashcore/internal/perfprox"
	"hashcore/internal/pow"
	"hashcore/internal/profile"
	"hashcore/internal/telemetry"
	"hashcore/internal/vm"
	"hashcore/internal/workload"
)

// DigestSize is the digest size in bytes.
const DigestSize = core.DigestSize

// Digest is a HashCore digest.
type Digest = core.Digest

// config collects the functional-option state.
type config struct {
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
// the paper's Figure 1; the paper notes multiple widgets are possible).
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

// Hasher is an instantiated HashCore function. It is immutable and safe
// for concurrent use, and satisfies the PoW-hasher shape used by Mine.
type Hasher struct {
	f *core.Func
}

// New builds a HashCore hasher. With no options it targets the Leela
// profile with the paper's defaults.
func New(opts ...Option) (*Hasher, error) {
	cfg := config{profileName: "leela"}
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
	f, err := core.New(core.Options{
		Gate:    gate.SHA256{},
		Profile: prof,
		GenParams: perfprox.Params{
			Noise:     cfg.noise,
			LoopTrips: cfg.loopTrips,
		},
		VMParams: vm.Params{SnapshotInterval: cfg.snapshot},
		Widgets:  cfg.widgets,
		Backend:  cfg.backend,
		Metrics:  cfg.metrics,
		Journal:  cfg.journal,
	})
	if err != nil {
		return nil, err
	}
	return &Hasher{f: f}, nil
}

// Hash computes the HashCore digest of input. Calls are serviced from an
// internal pool of execution contexts, so repeated hashing allocates
// nothing in the steady state.
func (h *Hasher) Hash(input []byte) (Digest, error) { return h.f.Hash(input) }

// Session is a single-goroutine hashing context: it owns the widget
// generator scratch, the VM and all buffers, reusing them across Hash
// calls. Digests are identical to Hasher.Hash; the difference is purely
// that a Session skips the internal pool round-trip, which matters in
// tight per-core loops (the miner holds one per worker). A Session is
// not safe for concurrent use.
type Session struct {
	s *core.Session
}

// NewSession returns a dedicated hashing context for this hasher.
func (h *Hasher) NewSession() *Session {
	return &Session{s: h.f.NewSession()}
}

// Hash computes the HashCore digest of input using the session's
// reusable state.
func (s *Session) Hash(input []byte) (Digest, error) { return s.s.Hash(input) }

// Close is an idempotent no-op, kept so that holders written against the
// session that owned a scratch-memory fill goroutine (the benchmark among
// them) keep compiling: the VM's scratch memory is never filled any
// more, so a session owns nothing but garbage-collected memory.
func (s *Session) Close() {}

// PhaseTimings accumulates the generation/execution wall-clock split of
// the widget pipeline across HashTimed calls (see core.PhaseTimings). The
// benchmark harness uses it to attribute hash latency to the generator
// versus the execution engine.
type PhaseTimings = core.PhaseTimings

// HashTimed is Session.Hash with per-phase instrumentation accumulated
// into t: widget-generation and VM-execution nanoseconds plus retired
// widget instructions. Digests are identical to Hash; the overhead is a
// few clock reads per widget.
func (s *Session) HashTimed(input []byte, t *PhaseTimings) (Digest, error) {
	return s.s.HashTimed(input, t)
}

// Sum is Hash without the error return; it panics only on internal
// invariant violations (never on any input value).
func (h *Hasher) Sum(input []byte) Digest { return h.f.Sum(input) }

// Name identifies the hasher, e.g. "hashcore-leela".
func (h *Hasher) Name() string { return "hashcore-" + h.f.ProfileName() }

// ProfileName returns the target profile's name.
func (h *Hasher) ProfileName() string { return h.f.ProfileName() }

// WidgetSource returns the assembly text of the widget that input selects
// — the reproduction's analogue of the generated C program.
func (h *Hasher) WidgetSource(input []byte) (string, error) {
	tr, err := h.f.Trace(input)
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
	tr, err := h.f.Trace(input)
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
type powAdapter struct{ h *Hasher }

func (a powAdapter) Hash(header []byte) ([32]byte, error) { return a.h.Hash(header) }
func (a powAdapter) Name() string                         { return a.h.Name() }

func (a powAdapter) NewSession() pow.Hasher {
	return sessionAdapter{s: a.h.NewSession(), name: a.h.Name()}
}

// sessionAdapter adapts Session to pow.Hasher for one miner worker.
type sessionAdapter struct {
	s    *Session
	name string
}

func (a sessionAdapter) Hash(header []byte) ([32]byte, error) { return a.s.Hash(header) }
func (a sessionAdapter) Name() string                         { return a.name }

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
