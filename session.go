package hashcore

import (
	"time"

	"hashcore/internal/perfprox"
	"hashcore/internal/vm"
)

// Session is a single-goroutine hashing context: it owns the generator
// scratch (PRNGs, budgets, program builder), the VM (the adopted program
// and scratch memory), the execution result (snapshot output buffer) and
// the gate concatenation buffer. After a few warm-up hashes every buffer
// has reached its high-water capacity and further Hash calls allocate
// nothing.
//
// A Session is bound to the Hasher that created it and is NOT safe for
// concurrent use; Hasher.Hash maintains a sync.Pool of sessions so
// ordinary callers never touch this type. Hold a Session directly when a
// single goroutine hashes in a tight loop (miner workers do this) and the
// pool round-trip is unwanted. Digests are identical to Hasher.Hash; the
// golden-vector tests lock this in.
type Session struct {
	h   *Hasher
	gen perfprox.Scratch
	m   *vm.Machine
	res vm.Result
	buf []byte // seed || widget-output gate message

	// execMark is the instant the timed execution phase began (set by
	// loadWidget when instrumentation is on; runWidget closes the
	// interval after the run).
	execMark time.Time
}

// NewSession returns a dedicated hashing context for this hasher.
func (h *Hasher) NewSession() *Session {
	s := &Session{h: h, m: &vm.Machine{}}
	s.m.SetBackend(h.backend)
	if h.met != nil {
		h.met.sessionsCreated.Inc()
	}
	return s
}

// Hash computes the HashCore digest of input using the session's
// reusable state.
func (s *Session) Hash(input []byte) (Digest, error) {
	return s.hash(input, nil, nil)
}

// Name identifies the session's hasher, e.g. "hashcore-leela", so that a
// Session is a pow.Hasher of its own.
func (s *Session) Name() string { return s.h.Name() }

// Close is an idempotent no-op, kept so that holders written against the
// session that owned a scratch-memory fill goroutine (the benchmark among
// them) keep compiling: the VM's scratch memory is never filled any
// more, so a session owns nothing but garbage-collected memory.
func (s *Session) Close() {}

// PhaseTimings accumulates the wall-clock split of the widget pipeline
// across HashTimed calls: generation (hash seed -> validated program),
// execution (VM load + run) and the retired widget instructions. The gate
// applications are the (small) remainder against total hash time. Used by
// the benchmark harness to attribute performance movement to the right
// half of the pipeline.
type PhaseTimings struct {
	// GenNs is nanoseconds spent generating widget programs (hash seed to
	// validated prog.Program, the form the VM runs as it stands).
	GenNs int64
	// ExecNs is nanoseconds spent loading programs into the VM and
	// executing them.
	ExecNs int64
	// CompileNs is nanoseconds spent compiling widgets to native code
	// (a subset of ExecNs; zero when the interpreter backend runs).
	CompileNs int64
	// FillNs is nanoseconds spent resetting the VM's scratch memory (a
	// subset of ExecNs). The name predates the sparse memory model: the
	// image is never filled now, and the reset is clearing the 32 KiB
	// written filter, whatever the image, and starting a new epoch of the
	// written-word table (vm.Machine).
	FillNs int64
	// LoadNs is nanoseconds spent loading generated programs into the VM
	// (a subset of ExecNs): the VM adopts the program where the builder
	// wrote it, so this is a few stores and a clock read.
	LoadNs int64
	// Retired is the total number of retired widget instructions.
	Retired uint64
	// WordsWritten is the total number of distinct scratch-memory words
	// the widgets stored to — the part of the image that ever existed.
	WordsWritten uint64
	// Hashes is the number of HashTimed calls accumulated.
	Hashes uint64
}

// HashTimed is Hash with per-phase instrumentation accumulated into t:
// widget-generation and VM-execution nanoseconds plus retired widget
// instructions. Digests are identical to Hash; the overhead is a few
// clock reads per widget.
func (s *Session) HashTimed(input []byte, t *PhaseTimings) (Digest, error) {
	t.Hashes++
	return s.hash(input, nil, t)
}

// hash runs the full pipeline: s = G(x), then widgets chained through the
// gate. obs may be nil (the VM then takes its specialized unobserved
// loop); t may be nil (no timing instrumentation — unless the Hasher has
// telemetry enabled, in which case a stack-local PhaseTimings keeps the
// per-phase clocks running so the histograms can observe the split).
func (s *Session) hash(input []byte, obs vm.Observer, t *PhaseTimings) (Digest, error) {
	if met := s.h.met; met != nil {
		var local PhaseTimings
		if t == nil {
			t = &local
		}
		start := time.Now()
		genNs, execNs, retired := t.GenNs, t.ExecNs, t.Retired
		d, err := s.hashInner(input, obs, t)
		if err == nil {
			met.observeHash(start, t, genNs, execNs, retired, s.m.LastRunStats().Backend)
		}
		return d, err
	}
	return s.hashInner(input, obs, t)
}

func (s *Session) hashInner(input []byte, obs vm.Observer, t *PhaseTimings) (Digest, error) {
	h := s.h
	seed := h.gate.Sum(input)
	for i := 0; i < h.widgets; i++ {
		if err := s.runWidget(perfprox.Seed(seed), obs, t); err != nil {
			return Digest{}, err
		}
		s.buf = append(append(s.buf[:0], seed[:]...), s.res.Output...)
		seed = h.gate.Sum(s.buf)
	}
	return seed, nil
}

// runWidget executes W(s) into s.res: generate the widget, load it into
// the session VM, compile it, run it.
func (s *Session) runWidget(seed perfprox.Seed, obs vm.Observer, t *PhaseTimings) error {
	h := s.h
	if err := s.loadWidget(seed, obs, t); err != nil {
		return err
	}
	s.m.RunInto(h.vparams, obs, &s.res)
	if t != nil || h.journal != nil {
		st := s.m.LastRunStats()
		if t != nil {
			t.ExecNs += time.Since(s.execMark).Nanoseconds()
			t.FillNs += st.ResetNs
			t.Retired += s.res.Retired
			t.WordsWritten += st.WordsWritten
		}
		if met := h.met; met != nil {
			met.wordsWritten.Add(st.WordsWritten)
			met.slowBounces.Add(st.SlowBounces)
		}
		if st.FallbackErr != nil {
			h.noteFallback(st.FallbackErr)
		}
	}
	return nil
}

// loadWidget runs the generate/load/compile half of the widget pipeline.
// On return the session VM holds the widget for seed, compiled when a
// native backend will run it.
func (s *Session) loadWidget(seed perfprox.Seed, obs vm.Observer, t *PhaseTimings) error {
	h := s.h
	var mark time.Time
	if t != nil {
		mark = time.Now()
	}
	widget, err := h.gen.GenerateInto(seed, &s.gen)
	if err != nil {
		return err
	}
	if t != nil {
		now := time.Now()
		t.GenNs += now.Sub(mark).Nanoseconds()
		mark = now
	}
	s.execMark = mark
	// The builder validated the program as it wrote it; skip the VM's
	// second structural pass.
	s.m.LoadTrusted(widget)
	if met := h.met; met != nil {
		met.archInstrs.Add(uint64(widget.NumInstrs()))
	}
	if t != nil {
		t.LoadNs += time.Since(s.execMark).Nanoseconds()
	}
	// Compile now rather than lazily inside the first run, so the compile
	// is a phase of its own. It is cached against the program load, so
	// the run never compiles: the compile's cost and its telemetry
	// observation are accounted here and nowhere else. A compile failure is left for the run to discover — it
	// falls back to the interpreter and reports the cached error as
	// FallbackErr, same as the lazy path.
	if obs == nil && s.m.BackendSelected() == vm.BackendNative {
		_, _ = s.m.CompileNative()
		if st := s.m.LastRunStats(); st.Compiled {
			if t != nil {
				t.CompileNs += st.CompileNs
			}
			if met := h.met; met != nil {
				met.jitCompileSeconds.Observe(float64(st.CompileNs) / 1e9)
			}
		}
	}
	return nil
}
