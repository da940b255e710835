// Package core assembles the HashCore PoW function from its parts
// (Figure 1 of the paper):
//
//	input ──G──> seed s ──(widget generation W)──> widget output
//	                │                                   │
//	                └────────────── s ║ W(s) ──────G──> digest
//
// Formally H(x) = G(s || W(s)) with s = G(x), where G is the hash gate and
// W is widget generation + execution. Theorem 1 of the paper proves H is
// collision-resistant when G is; ExtractGateCollision implements the
// constructive reduction (algorithm B) from that proof, and the tests run
// it against a deliberately weakened gate.
package core

import (
	"errors"
	"fmt"
	"sync"

	"hashcore/internal/asm"
	"hashcore/internal/gate"
	"hashcore/internal/perfprox"
	"hashcore/internal/profile"
	"hashcore/internal/prog"
	"hashcore/internal/telemetry"
	"hashcore/internal/vm"
)

// DigestSize is the HashCore output size in bytes.
const DigestSize = gate.SeedSize

// Digest is a HashCore output.
type Digest = [DigestSize]byte

// Options configures a HashCore function. Profile is required; everything
// else has sensible defaults.
type Options struct {
	// Gate is the hash gate G. Defaults to gate.SHA256.
	Gate gate.Gate
	// Profile is the inverted-benchmarking target profile (required).
	Profile *profile.Profile
	// GenParams tunes the widget generator.
	GenParams perfprox.Params
	// VMParams tunes widget execution (snapshot interval, budget).
	VMParams vm.Params
	// Widgets is the number of sequentially chained widgets (the paper
	// uses one but notes "multiple widgets could be generated ... and
	// executed sequentially"). Defaults to 1.
	Widgets int
	// Backend selects the widget execution engine (vm.BackendAuto, the
	// zero value, picks native code where supported and falls back to the
	// fused interpreter). Digests are bit-identical across backends.
	Backend vm.Backend
	// Metrics, when non-nil, instruments every hash through this
	// registry: latency histograms (total and gen/exec split), retired
	// instructions, and static fusion-ratio counters. The record path
	// is allocation-free and costs a few clock reads and atomic adds
	// per hash, so enabling it does not perturb throughput measurably.
	Metrics *telemetry.Registry
	// Journal, when non-nil, receives structured events: currently
	// jit_fallback, emitted once per Func when a native-capable backend
	// falls back to the interpreter (compile failure).
	Journal *telemetry.Journal
}

// Func is an instantiated HashCore PoW function. Its configuration is
// immutable and it is safe for concurrent use: each Hash call checks a
// reusable execution context (Session) out of an internal pool, so
// steady-state hashing allocates nothing while the public API stays a
// plain function call.
type Func struct {
	gate    gate.Gate
	gen     *perfprox.Generator
	vparams vm.Params
	widgets int
	backend vm.Backend
	met     *hashMetrics       // nil when telemetry is disabled
	journal *telemetry.Journal // nil-safe; jit_fallback events

	fellBack sync.Once // jit_fallback is journaled once per Func
	sessions sync.Pool // of *Session
}

// ErrNoProfile is returned by New when Options.Profile is missing.
var ErrNoProfile = errors.New("core: Options.Profile is required")

// New builds a HashCore function from opts.
func New(opts Options) (*Func, error) {
	if opts.Profile == nil {
		return nil, ErrNoProfile
	}
	g := opts.Gate
	if g == nil {
		g = gate.SHA256{}
	}
	gen, err := perfprox.NewGenerator(opts.Profile, opts.GenParams)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	widgets := opts.Widgets
	if widgets == 0 {
		widgets = 1
	}
	if widgets < 1 || widgets > 64 {
		return nil, fmt.Errorf("core: widget count %d out of range [1,64]", widgets)
	}
	f := &Func{
		gate:    g,
		gen:     gen,
		vparams: opts.VMParams,
		widgets: widgets,
		backend: opts.Backend,
		met:     newHashMetrics(opts.Metrics),
		journal: opts.Journal,
	}
	f.sessions.New = func() any { return f.NewSession() }
	return f, nil
}

// Backend reports the configured execution backend.
func (f *Func) Backend() vm.Backend { return f.backend }

// noteFallback journals the first native-to-interpreter fallback of this
// Func's lifetime. Every session of a Func compiles the same instruction
// set, so one event carries all the signal without flooding the journal
// at hash rate.
func (f *Func) noteFallback(err error) {
	f.fellBack.Do(func() {
		f.journal.Emit("jit_fallback", map[string]any{
			"error":   err.Error(),
			"profile": f.gen.Profile().Name,
		})
	})
}

// GateName returns the name of the configured hash gate.
func (f *Func) GateName() string { return f.gate.Name() }

// ProfileName returns the name of the target profile.
func (f *Func) ProfileName() string { return f.gen.Profile().Name }

// Hash computes H(x) = G(s || W(s)) with s = G(x). With Widgets > 1 the
// construction is iterated: s_{i+1} = G(s_i || W(s_i)), and the final
// digest is the last gate output.
//
// Hash services the call from a pooled Session, so concurrent and
// repeated calls reach a zero-allocation steady state without the caller
// managing sessions explicitly.
func (f *Func) Hash(input []byte) (Digest, error) {
	s := f.session()
	d, err := s.hash(input, nil, nil)
	f.sessions.Put(s)
	return d, err
}

// HashObserved is Hash with a VM observer attached to every widget
// execution (used by the experiment harness to collect timing metrics
// from real PoW evaluations).
func (f *Func) HashObserved(input []byte, obs vm.Observer) (Digest, error) {
	s := f.session()
	d, err := s.hash(input, obs, nil)
	f.sessions.Put(s)
	return d, err
}

func (f *Func) session() *Session {
	return f.sessions.Get().(*Session)
}

// Sum is Hash for infallible contexts: it panics if the internal pipeline
// fails, which can only happen on resource exhaustion or a bug (the
// generator always emits valid programs — property-tested).
func (f *Func) Sum(input []byte) Digest {
	d, err := f.Hash(input)
	if err != nil {
		panic(fmt.Sprintf("core: internal pipeline failure: %v", err))
	}
	return d
}

// runWidget executes W(s) on a pooled session and returns a copy of the
// snapshot stream (the session's own output buffer is recycled). Cold
// paths (Trace, the collision reduction) use this; the hot path stays on
// Session.runWidget directly.
func (f *Func) runWidget(seed perfprox.Seed, obs vm.Observer) ([]byte, error) {
	s := f.session()
	defer f.sessions.Put(s)
	if err := s.runWidget(seed, obs, nil); err != nil {
		return nil, err
	}
	return append([]byte(nil), s.res.Output...), nil
}

// Trace exposes every intermediate of a hash computation for inspection
// (CLI, tests, experiment harness). Source/Widget/Result describe the
// first widget in the chain; Digest always equals Hash(Input).
type Trace struct {
	Input  []byte
	Seed   perfprox.Seed
	Fields perfprox.Fields
	Source string
	Widget *prog.Program
	Result *vm.Result
	Digest Digest
}

// Trace runs the full pipeline for input, retaining intermediates. Where
// Hash runs the generator's program directly, Trace takes the textual
// chain — generate, render as source, assemble, run: the analogue of the
// paper's script -> C -> binary pipeline — so Trace.Source is the exact
// text that was compiled and executed. Both reach the same digest
// (TestSourcePipelineMatchesDirect).
func (f *Func) Trace(input []byte) (*Trace, error) {
	seedArr := f.gate.Sum(input)
	seed := perfprox.Seed(seedArr)
	src, err := f.gen.GenerateSource(seed)
	if err != nil {
		return nil, err
	}
	widget, err := asm.Assemble(src)
	if err != nil {
		return nil, fmt.Errorf("core: compiling generated source: %w", err)
	}
	m := &vm.Machine{}
	m.SetBackend(f.backend)
	if err := m.Load(widget); err != nil {
		return nil, err
	}
	res := m.Run(f.vparams, nil)
	buf := make([]byte, 0, len(seedArr)+len(res.Output))
	buf = append(buf, seedArr[:]...)
	buf = append(buf, res.Output...)
	cur := f.gate.Sum(buf)

	// Iterate the remaining widgets if chaining is configured, so the
	// reported digest always equals Hash(input).
	for i := 1; i < f.widgets; i++ {
		out, err := f.runWidget(perfprox.Seed(cur), nil)
		if err != nil {
			return nil, err
		}
		chain := make([]byte, 0, len(cur)+len(out))
		chain = append(chain, cur[:]...)
		chain = append(chain, out...)
		cur = f.gate.Sum(chain)
	}

	return &Trace{
		Input:  append([]byte(nil), input...),
		Seed:   seed,
		Fields: perfprox.Split(seed),
		Source: src,
		Widget: widget,
		Result: res,
		Digest: cur,
	}, nil
}

// ExtractGateCollision is algorithm B from the paper's Theorem 1 proof:
// given a collision (x0, x1) on H, it produces a collision on the hash
// gate G with certainty. It returns ok=false if (x0, x1) is not actually a
// collision on H.
//
//	Case 1: G(x0) == G(x1) -> (x0, x1) collide on G directly.
//	Case 2: seeds differ   -> (s0||W(s0), s1||W(s1)) collide on the
//	                          second gate application (walking the chain
//	                          for multi-widget configurations).
func (f *Func) ExtractGateCollision(x0, x1 []byte) (a, b []byte, ok bool, err error) {
	if string(x0) == string(x1) {
		return nil, nil, false, nil
	}
	h0, err := f.Hash(x0)
	if err != nil {
		return nil, nil, false, err
	}
	h1, err := f.Hash(x1)
	if err != nil {
		return nil, nil, false, err
	}
	if h0 != h1 {
		return nil, nil, false, nil
	}

	s0 := f.gate.Sum(x0)
	s1 := f.gate.Sum(x1)
	if s0 == s1 {
		// Case 1: the first gate collided.
		return append([]byte(nil), x0...), append([]byte(nil), x1...), true, nil
	}
	// Case 2: some later gate application collided; walk the chain until
	// the gate outputs meet (guaranteed by H(x0) == H(x1)).
	m0, err := f.gateMessage(s0)
	if err != nil {
		return nil, nil, false, err
	}
	m1, err := f.gateMessage(s1)
	if err != nil {
		return nil, nil, false, err
	}
	for i := 1; i < f.widgets; i++ {
		c0, c1 := f.gate.Sum(m0), f.gate.Sum(m1)
		if c0 == c1 {
			break
		}
		m0, err = f.gateMessage(c0)
		if err != nil {
			return nil, nil, false, err
		}
		m1, err = f.gateMessage(c1)
		if err != nil {
			return nil, nil, false, err
		}
	}
	return m0, m1, true, nil
}

// gateMessage returns s || W(s), the message fed to the second gate.
func (f *Func) gateMessage(s Digest) ([]byte, error) {
	out, err := f.runWidget(perfprox.Seed(s), nil)
	if err != nil {
		return nil, err
	}
	return append(append(make([]byte, 0, len(s)+len(out)), s[:]...), out...), nil
}
