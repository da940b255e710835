package vm

import (
	"fmt"
	"runtime"
	"time"
	"unsafe"

	"hashcore/internal/jit"
	"hashcore/internal/rng"
)

// Backend selects the unobserved execution engine. A run with an Observer
// attached always takes the interpreter's reference step, whatever the
// backend: it exists to surface every retirement as an Event, which native
// code cannot do.
type Backend uint8

const (
	// BackendNative runs native code when the platform supports it and
	// the program compiles, falling back to the fused interpreter
	// otherwise (LastRunStats reports a compile fallback, so callers and
	// tests can detect it). This is the zero value, so an unconfigured
	// Machine picks the fastest engine.
	BackendNative Backend = iota
	// BackendInterp forces the fused interpreter (the portable reference
	// executor).
	BackendInterp
)

func (b Backend) String() string {
	if b == BackendInterp {
		return "interp"
	}
	return "native"
}

// ParseBackend parses the -backend flag / HASHCORE_BACKEND values. ""
// and "auto" are accepted as spellings of native.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "", "auto", "native":
		return BackendNative, nil
	case "interp":
		return BackendInterp, nil
	}
	return BackendNative, fmt.Errorf("vm: unknown backend %q (want native or interp)", s)
}

// NativeSupported reports whether this platform has a native code backend.
func NativeSupported() bool { return jit.Supported() }

// RunStats describes how the most recent RunInto executed.
type RunStats struct {
	// Backend is the engine that actually ran.
	Backend Backend
	// Compiled reports that this run (re)compiled the program to native
	// code; CompileNs is that compilation's wall time. A cached native run
	// has Compiled == false and CompileNs == 0.
	Compiled  bool
	CompileNs int64
	// FallbackErr is set when the native backend was requested on a
	// supported platform but the run fell back to the interpreter, and
	// records why.
	FallbackErr error
	// ResetNs is the time the run spent making its scratch memory pristine
	// (clearing the written filter, starting a table epoch) and WordsWritten
	// the number of distinct 8-byte words it then stored to — the table's
	// insert count, i.e. how much of the image ever existed. TableSlots is
	// the table's capacity after the run (16 bytes a slot; see memory.go).
	ResetNs      int64
	WordsWritten uint64
	TableSlots   int
	// SlowBounces is how many times a native run left its code for the
	// interpreter's reference step to carry one block over a snapshot or
	// budget boundary (see runNative): about one per snapshot. Zero on the
	// interpreter.
	SlowBounces uint64
}

// SetBackend selects the execution engine for subsequent runs.
func (m *Machine) SetBackend(b Backend) { m.backend = b }

// BackendSelected resolves the configured backend against the platform:
// the engine an unobserved run will attempt.
func (m *Machine) BackendSelected() Backend {
	if m.backend != BackendInterp && jit.Supported() {
		return BackendNative
	}
	return BackendInterp
}

// LastRunStats reports how the most recent RunInto executed.
func (m *Machine) LastRunStats() RunStats { return m.lastStats }

// nativeState is the per-Machine JIT cache: the compiler (which owns the
// executable mapping), the compiled code for the currently loaded program,
// and the scratch the native driver reuses every run. All of it reaches a
// steady state where repeated load/compile/run cycles allocate nothing.
type nativeState struct {
	comp  *jit.Compiler
	code  *jit.Code
	frame jit.Frame

	// compiledGen keys the cached code to Machine.loadGen: LoadTrusted
	// bumps the generation, so the first unobserved run of each loaded
	// program compiles and later runs of the same load hit the cache.
	compiledGen uint64
	compileErr  error
}

// CompileNative eagerly compiles the currently loaded program for the
// native backend (normally done lazily by the first unobserved run) and
// returns the generated code size. On platforms without a native backend
// it returns jit.ErrUnsupported.
func (m *Machine) CompileNative() (int, error) {
	if !jit.Supported() {
		return 0, jit.ErrUnsupported
	}
	ns := m.ensureCompiled()
	if ns.compileErr != nil {
		return 0, ns.compileErr
	}
	return ns.code.Size(), nil
}

// ensureCompiled returns the native state with code compiled for the
// current program load, compiling (and timing the compile into lastStats)
// if the cache is stale.
func (m *Machine) ensureCompiled() *nativeState {
	ns := m.native
	if ns == nil {
		ns = &nativeState{comp: jit.NewCompiler()}
		m.native = ns
	}
	if ns.compiledGen == m.loadGen {
		return ns
	}
	start := time.Now()
	ns.code, ns.compileErr = ns.comp.Compile(&m.prog)
	ns.compiledGen = m.loadGen
	m.lastStats.Compiled = true
	m.lastStats.CompileNs = time.Since(start).Nanoseconds()
	return ns
}

// tryRunNative attempts the native engine for an unobserved run. It
// reports false — leaving res untouched — when the backend, platform or
// program requires the interpreter instead.
func (m *Machine) tryRunNative(params Params, res *Result) bool {
	if m.backend == BackendInterp || !jit.Supported() {
		return false
	}
	if len(m.prog.Blocks) == 0 || m.prog.MemSize == 0 {
		return false
	}
	ns := m.ensureCompiled()
	if ns.compileErr != nil {
		m.lastStats.FallbackErr = ns.compileErr
		return false
	}
	m.runNative(params, res, ns)
	return true
}

// runNative drives compiled code to completion. The structure mirrors
// runUnobserved exactly: native code IS the fast path (head guards,
// wholesale retirement, straight-line bodies), and every block it cannot
// retire wholesale is bounced to the same reference step (step) the
// interpreter uses, after which execution re-enters native code at the
// block the step names. Snapshot bytes, truncation points and retired
// counts are therefore bit-identical across engines.
//
// Native code inserts into the written-word table but cannot grow it, so
// it runs on a countdown no longer than the table's headroom (see
// jit.Frame.Headroom): a segment stores at most one word per instruction it
// retires. Every return grows the table back to a default snapshot
// segment's headroom (wordTable.fit), so at the default parameters headroom
// never ends a segment; a longer interval ends some at a headroom bounce,
// which is where the table grows.
func (m *Machine) runNative(params Params, res *Result, ns *nativeState) {
	st := newExecState(params)
	truncated := false
	bi := uint32(0)

	f := &ns.frame
	f.Written = uintptr(unsafe.Pointer(&m.written[0]))
	f.SeedGamma = m.prog.MemSeed + rng.SplitMix64Gamma
	f.MaskAligned = (uint64(m.prog.MemSize) - 1) &^ 7
	f.MaxInstr = st.maxInstr
	tab := &m.table
	f.Epoch = tab.epoch

	for {
		// Enter native code at block bi; it runs fast-path blocks until a
		// boundary, halt or truncation forces an exit.
		f.Table = uintptr(unsafe.Pointer(&tab.slots[0]))
		f.TableMask = uint64(len(tab.slots)-1) << 4
		f.TableShift = uint64(tab.shift) - 4
		f.Inserts = uint64(tab.count)
		f.Headroom = uint64(tab.headroom())
		f.IntRegs = m.intRegs
		f.FPRegs = m.fpRegs
		f.VecRegs = m.vecRegs
		f.Retired = st.retired
		f.UntilSnap = st.untilSnap
		ns.code.Run(f, bi)
		tab.count = int(f.Inserts)
		tab.fit()
		m.intRegs = f.IntRegs
		m.fpRegs = f.FPRegs
		m.vecRegs = f.VecRegs
		st.retired = f.Retired
		st.untilSnap = f.UntilSnap

		if f.Status == jit.StatusHalt {
			break
		}
		// The block straddles a budget or snapshot boundary (or the budget
		// is exhausted outright, or the table's headroom): execute it on the
		// exact per-instruction path — which truncates, snapshots, or
		// retires it exactly as the interpreter would — then re-enter
		// native code.
		m.lastStats.SlowBounces++
		next, status := m.step(f.NextBlock, &st, res, nil)
		if status != stepNext {
			truncated = status == stepTrunc
			break
		}
		bi = next
	}
	// The written/table uintptrs in the frame die with this call; m keeps
	// the underlying storage alive until here (a table grown mid-run is not
	// entered again through its old address).
	runtime.KeepAlive(m)
	m.finishRun(&st, truncated, res)
}
