// Package vm executes widget programs deterministically.
//
// The VM is the functional half of the reproduction's execution substrate
// (the timing half is internal/uarch). It interprets a validated
// prog.Program and produces the widget output the paper describes: "a
// series of snapshots of the computer's register contents captured every
// few thousand instructions". Every architectural register is included in
// each snapshot, so every executed instruction influences the output — the
// paper's irreducibility requirement ("if even a single bit is incorrect in
// the proxy output then the resulting hash will be invalid").
//
// Determinism contract: given the same program and parameters, Run produces
// bit-identical output on every platform and Go release. This is what makes
// the enclosing PoW verifiable. The contract is maintained by:
//   - fixed-width two's-complement integer semantics;
//   - one IEEE-754 binary operation per statement (no FMA contraction);
//   - canonicalized NaNs after every FP operation;
//   - masked, aligned scratch-memory addressing;
//   - a hard dynamic-instruction budget so execution always terminates.
//
// Machines are reusable: Load adopts a new program in place — a
// prog.Program is already the form every engine reads, so there is no
// decoding and no copy — keeping the scratch-memory storage, and RunInto
// appends output into a caller-owned Result, so a hot loop (hashcore.Session,
// the miner) executes arbitrarily many widgets without allocating.
//
// The instruction set's semantics are written down twice in this package
// and nowhere else in it. step is the reference: one architectural
// instruction at a time, every check and count per instruction, an
// Observer told of each retirement if one is attached. runUnobserved is
// the fast interpreter loop: superinstruction-fused, accounted a block at
// a time (fuse.go). A run without an Observer takes the fast loop — or
// native code, see backend.go — and drops to the reference step only for
// the block that crosses a budget or snapshot boundary; a run with one is
// the reference step from start to finish.
package vm

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"time"

	"hashcore/internal/isa"
	"hashcore/internal/prog"
)

// Default execution parameters.
const (
	DefaultSnapshotInterval = 2048
	DefaultMaxInstructions  = 8 << 20 // 8M retired instructions
)

// SnapshotSize is the encoded size of one register snapshot in bytes:
// 16 integer registers + 16 FP registers + 8 xor-folded vector registers +
// the retired-instruction counter, 8 bytes each.
const SnapshotSize = (isa.NumIntRegs + isa.NumFPRegs + isa.NumVecRegs + 1) * 8

// canonicalNaN is the single NaN bit pattern the VM allows to be observed,
// making FP results platform-independent.
const canonicalNaN = 0x7ff8000000000000

// Params configures an execution.
type Params struct {
	// SnapshotInterval is the number of retired instructions between
	// register snapshots. 0 means DefaultSnapshotInterval.
	SnapshotInterval uint64
	// MaxInstructions is the hard budget of retired instructions; if
	// reached, execution stops and the result is marked truncated.
	// 0 means DefaultMaxInstructions.
	MaxInstructions uint64
}

func (p Params) withDefaults() Params {
	if p.SnapshotInterval == 0 {
		p.SnapshotInterval = DefaultSnapshotInterval
	}
	if p.MaxInstructions == 0 {
		p.MaxInstructions = DefaultMaxInstructions
	}
	return p
}

// Event describes one retired instruction, delivered to an Observer. The
// pointer passed to OnRetire is reused between calls; observers must not
// retain it.
type Event struct {
	// StaticID is the flat index of the instruction in the program,
	// used as the static PC identity for predictors and caches.
	StaticID uint32
	Op       isa.Opcode
	Class    isa.Class
	Dst      uint8
	A        uint8
	B        uint8
	// Addr is the effective byte address for loads and stores.
	Addr uint64
	// IsMem reports whether Addr is meaningful.
	IsMem bool
	// Taken reports the outcome of branch instructions (conditional
	// branches and jumps).
	Taken bool
}

// Observer receives retired-instruction events (e.g. the uarch timing
// model or the profiler).
type Observer interface {
	OnRetire(ev *Event)
}

// Result is the outcome of an execution. A run counts only what its output
// needs: how many instructions of each class it retired, or how its
// branches went, is an Observer's to count (the profiler's and the timing
// model's do), and costs an unobserved run nothing.
type Result struct {
	// Output is the widget output: the concatenated register snapshots.
	Output []byte
	// Retired is the number of retired instructions.
	Retired uint64
	// Truncated reports whether the instruction budget stopped execution
	// before a halt instruction.
	Truncated bool
	// Snapshots is the number of snapshots taken.
	Snapshots int
}

// reset clears the result for a fresh execution, retaining Output's
// backing storage so repeated RunInto calls do not allocate.
func (r *Result) reset() {
	r.Output = r.Output[:0]
	r.Retired = 0
	r.Truncated = false
	r.Snapshots = 0
}

// blockMeta is the fast interpreter loop's per-block record, built with the
// fused stream (ensureFused): where the block's fused slots live, how many
// architectural instructions the whole block retires, and where control
// goes when no slot redirects it.
type blockMeta struct {
	fstart uint32 // first fused instruction (m.fcode index)
	fend   uint32 // one past the last fused instruction
	next   uint32 // successor block: a trailing jmp's target, else the block after
	count  uint32 // architectural instructions retired by the full block (the block table's Len)
}

// Machine is a reusable executor. Construct with New (or the zero value
// plus Load), then call Run or RunInto. A Machine may execute many
// programs: Load replaces the program while keeping the fused stream's
// storage and the scratch memory, so steady-state reloads allocate
// nothing. A Machine is not safe for concurrent use.
type Machine struct {
	// The loaded program, adopted in place: the reference step, the native
	// compiler and the fusing pass all read prog.Code and prog.Blocks, which
	// alias the storage of whoever built the program.
	prog prog.Program

	// The fused stream and its block records, what the fast interpreter loop
	// dispatches (fuse.go). Derived from prog on first use, see ensureFused.
	fcode   []prog.Instr
	fblocks []blockMeta

	// The scratch memory is a sparse overlay over an image that is never
	// materialized: word i of the pristine image is by definition
	// rng.SplitMix64At(MemSeed, i), which costs three multiplies — less than
	// the cache miss that would fetch it — so loads compute it. table
	// holds the words stored, keyed by index (memory.go; sized by what a
	// hash writes — some ten thousand of mcf's eight million words — not by
	// the image), and written is a 32 KiB filter in front of it: word i
	// owns bit i mod 2^18, set by every store to the word. A load whose bit
	// is clear computes the pristine word; one whose bit is set probes the
	// table, which has the word or, if a word sharing the bit was stored
	// instead, an empty slot, and then it computes the pristine word after
	// all. Up to a 2 MiB image every word has a bit of its own. Native code
	// tests and sets the same bits and probes the same table, because
	// boundary blocks bounce between the two engines mid-run. Resetting
	// memory is clearing the filter and starting a new table epoch.
	// memClean records that no run has started since the last clear.
	written  *writtenFilter
	table    wordTable
	memClean bool

	intRegs [isa.NumIntRegs]uint64
	fpRegs  [isa.NumFPRegs]uint64 // IEEE-754 bits
	vecRegs [isa.NumVecRegs][isa.VecLanes]uint64
	event   Event // the one Event observers are shown (here, not in step's frame, where it would escape per call)

	// Native backend state (see backend.go): the configured engine, the
	// per-Machine JIT cache, the load generation that keys it (and the
	// lazily built fused stream, see ensureFused), and the last run's
	// execution report.
	backend   Backend
	native    *nativeState
	loadGen   uint64
	fusedGen  uint64
	lastStats RunStats
}

// New validates p and returns a machine loaded with it.
func New(p *prog.Program) (*Machine, error) {
	m := &Machine{}
	if err := m.Load(p); err != nil {
		return nil, err
	}
	return m, nil
}

// Load validates p and swaps it in as the machine's program. Like
// LoadTrusted it adopts p.Code and p.Blocks in place: the machine aliases
// the caller's storage until the next load, and the caller must not change
// it while the machine may still run the program.
func (m *Machine) Load(p *prog.Program) error {
	if err := p.Validate(); err != nil {
		return fmt.Errorf("vm: %w", err)
	}
	m.LoadTrusted(p)
	return nil
}

// CodeSize reports the lengths of the two instruction streams of the
// currently loaded program: arch is the program's own architectural
// stream, fused the slots the fast loop dispatches for it — pairs fused
// into one, trailing jumps folded into block metadata (fused <= arch).
// Fusing is lazy, so calling this builds the fused stream if no interpreter
// run has needed it yet: a measurement tool's call, not the hashing path's.
func (m *Machine) CodeSize() (arch, fused int) {
	m.ensureFused()
	return len(m.prog.Code), len(m.fcode)
}

// LoadTrusted is Load without the validation pass, for programs that are
// already known to be structurally valid (e.g. just returned by
// prog.Builder, which validates as it writes). Loading an unvalidated
// program may make Run panic with an out-of-range access.
//
// There is nothing to decode: a program's instructions and block table
// are already what the reference step and the native compiler read, so
// loading adopts them where they lie, whoever built the program, and costs
// the same for 10 instructions as for 10,000. The adopted slices follow
// the program's lifetime contract (a reused builder's storage is valid
// until its next Reset), which matches the load-then-run-then-regenerate
// cycle of the hashing session. The fused stream the fast interpreter loop
// dispatches is derived on first use (see ensureFused): the native backend
// executes the program as it is, so a native-backed load/run cycle never
// pays the peephole pass.
func (m *Machine) LoadTrusted(p *prog.Program) {
	m.loadGen++ // invalidates the compiled code and the fused stream
	m.prog = *p
}

// ensureFused brings the fused superinstruction stream (see fuse.go) and
// its block records up to date with the loaded program. It runs the
// peephole pass at most once per load: the fast interpreter loop needs it,
// the native backend does not. Blocks keep their identity — only the
// intra-block stream is compressed — so control flow and accounting are
// unaffected.
func (m *Machine) ensureFused() {
	if m.fusedGen == m.loadGen {
		return
	}
	m.fusedGen = m.loadGen
	if cap(m.fcode) < len(m.prog.Code) {
		m.fcode = make([]prog.Instr, 0, len(m.prog.Code))
	}
	m.fcode = m.fcode[:0]
	nb := len(m.prog.Blocks)
	if cap(m.fblocks) < nb {
		m.fblocks = make([]blockMeta, nb)
	}
	m.fblocks = m.fblocks[:nb]
	for bi := range m.fblocks {
		meta := &m.fblocks[bi]
		meta.fstart = uint32(len(m.fcode))
		m.fcode, meta.next = appendFusedBlock(m.fcode, m.prog.Instrs(bi), uint32(bi)+1)
		meta.fend = uint32(len(m.fcode))
		meta.count = m.prog.Blocks[bi].Len
	}
}

// reset restores the architectural state for a fresh run: registers are
// zeroed (FP registers hold +0.0) and the scratch memory is made pristine,
// which is clearing the written filter (32 KiB) and starting a new table
// epoch, not touching the image.
func (m *Machine) reset() {
	m.intRegs = [isa.NumIntRegs]uint64{}
	m.fpRegs = [isa.NumFPRegs]uint64{}
	m.vecRegs = [isa.NumVecRegs][isa.VecLanes]uint64{}
	m.resetMemory()
}

// Run executes the program to completion (halt or budget) and returns a
// freshly allocated result. It is a convenience wrapper over RunInto with
// a new Result: the allocation is the Result (and its output buffer), not
// the execution. Callers on a hot path must instead recycle a Result
// through RunInto — that is the zero-allocation path (once the Result's
// output buffer reaches its high-water capacity, execution performs no
// allocation; TestRunIntoZeroAlloc and TestFusedLoopZeroAlloc pin this).
func (m *Machine) Run(params Params, obs Observer) *Result {
	res := &Result{}
	m.RunInto(params, obs, res)
	return res
}

// RunInto executes the program to completion (halt or budget), writing
// the outcome into res. res is fully overwritten; its Output storage is
// reused and grows by append to the longest output it has held, so a
// Result that is recycled across calls reaches a steady state where
// execution performs no allocation.
//
// With obs == nil a fast engine runs — native code, or the block-batched
// superinstruction loop (runUnobserved) — and only boundary blocks take
// the per-instruction reference step; with an observer attached the
// reference step runs every block, so every architectural retirement is
// visible as an Event. All of them retire identical architectural state —
// digests do not depend on whether an observer was attached — which the
// differential tests against the dense oracle verify.
func (m *Machine) RunInto(params Params, obs Observer, res *Result) {
	params = params.withDefaults()
	start := time.Now()
	m.reset()
	resetNs := time.Since(start).Nanoseconds()
	m.memClean = false // whichever engine runs may store from here on
	res.reset()
	m.lastStats = RunStats{Backend: BackendInterp, ResetNs: resetNs}
	if obs == nil {
		// Unobserved runs may take the native backend (see backend.go);
		// tryRunNative declines — leaving res untouched — whenever the
		// backend, platform or program requires the interpreter.
		if m.tryRunNative(params, res) {
			m.lastStats.Backend = BackendNative
		} else {
			m.runUnobserved(params, res)
		}
	} else {
		m.runObserved(params, obs, res)
	}
	m.lastStats.WordsWritten = uint64(m.table.count)
	m.lastStats.TableSlots = len(m.table.slots)
}

// execState carries the live accounting shared between the fast engines
// and the reference step: the retired counter and snapshot countdown,
// which gate execution and are all of it.
type execState struct {
	retired      uint64
	untilSnap    uint64
	snapInterval uint64
	maxInstr     uint64
}

// stepStatus reports how the reference step left the run.
type stepStatus uint8

const (
	stepNext  stepStatus = iota // continue the block loop at the returned block
	stepHalt                    // a halt instruction retired
	stepTrunc                   // the instruction budget truncated execution
)

func newExecState(params Params) execState {
	return execState{
		untilSnap:    params.SnapshotInterval,
		snapInterval: params.SnapshotInterval,
		maxInstr:     params.MaxInstructions,
	}
}

// runUnobserved is the fast interpreter loop, organized around the
// program's basic-block structure: control flow can only leave a block at
// its terminator, so the budget check, snapshot countdown and retirement
// accounting are hoisted to once per block. A block whose execution would
// cross the instruction budget or a snapshot boundary takes step —
// an exact per-instruction re-entry over the program's own code — so retired
// counts, truncation points and snapshot contents are bit-identical to
// per-instruction execution. Within a block the fused superinstruction
// stream (fuse.go) is dispatched: hot pairs in one slot, and a trailing
// jump in none — it is the block's recorded successor.
//
// It must retire exactly the architectural state step does.
func (m *Machine) runUnobserved(params Params, res *Result) {
	m.ensureFused()
	fcode := m.fcode
	blocks := m.fblocks
	tab, written, seed := &m.table, m.written, m.prog.MemSeed
	intRegs := &m.intRegs
	fpRegs := &m.fpRegs
	mask := uint64(m.prog.MemSize - 1)

	st := newExecState(params)
	truncated := false
	bi := uint32(0)

blockLoop:
	for {
		if st.retired >= st.maxInstr {
			truncated = true
			break
		}
		meta := &blocks[bi]
		count := uint64(meta.count)
		if count > st.maxInstr-st.retired || count >= st.untilSnap {
			// The block straddles the budget or a snapshot boundary:
			// execute it per-instruction with exact checks.
			next, status := m.step(bi, &st, res, nil)
			if status != stepNext {
				truncated = status == stepTrunc
				break
			}
			bi = next
			continue
		}

		// Fast path: the whole block retires inside the budget and snapshot
		// window, so account it wholesale.
		st.retired += count
		st.untilSnap -= count
		next := meta.next
		for i, fe := meta.fstart, meta.fend; i < fe; i++ {
			ins := &fcode[i]
			switch ins.Op {
			case isa.OpAdd:
				intRegs[ins.Dst] = intRegs[ins.A] + intRegs[ins.B]
			case isa.OpSub:
				intRegs[ins.Dst] = intRegs[ins.A] - intRegs[ins.B]
			case isa.OpAnd:
				intRegs[ins.Dst] = intRegs[ins.A] & intRegs[ins.B]
			case isa.OpOr:
				intRegs[ins.Dst] = intRegs[ins.A] | intRegs[ins.B]
			case isa.OpXor:
				intRegs[ins.Dst] = intRegs[ins.A] ^ intRegs[ins.B]
			case isa.OpShl:
				intRegs[ins.Dst] = intRegs[ins.A] << (intRegs[ins.B] & 63)
			case isa.OpShr:
				intRegs[ins.Dst] = intRegs[ins.A] >> (intRegs[ins.B] & 63)
			case isa.OpRor:
				k := intRegs[ins.B] & 63
				v := intRegs[ins.A]
				intRegs[ins.Dst] = (v >> k) | (v << ((64 - k) & 63))
			case isa.OpCmpLT:
				if intRegs[ins.A] < intRegs[ins.B] {
					intRegs[ins.Dst] = 1
				} else {
					intRegs[ins.Dst] = 0
				}
			case isa.OpCmpEQ:
				if intRegs[ins.A] == intRegs[ins.B] {
					intRegs[ins.Dst] = 1
				} else {
					intRegs[ins.Dst] = 0
				}
			case isa.OpMov:
				intRegs[ins.Dst] = intRegs[ins.A]
			case isa.OpMovI:
				intRegs[ins.Dst] = uint64(ins.Imm)
			case isa.OpAddI:
				intRegs[ins.Dst] = intRegs[ins.A] + uint64(ins.Imm)

			case isa.OpMul:
				intRegs[ins.Dst] = intRegs[ins.A] * intRegs[ins.B]
			case isa.OpMulH:
				hi, _ := mul64(intRegs[ins.A], intRegs[ins.B])
				intRegs[ins.Dst] = hi

			case isa.OpFAdd:
				fa := math.Float64frombits(fpRegs[ins.A])
				fb := math.Float64frombits(fpRegs[ins.B])
				fpRegs[ins.Dst] = canonBits(fa + fb)
			case isa.OpFSub:
				fa := math.Float64frombits(fpRegs[ins.A])
				fb := math.Float64frombits(fpRegs[ins.B])
				fpRegs[ins.Dst] = canonBits(fa - fb)
			case isa.OpFMul:
				fa := math.Float64frombits(fpRegs[ins.A])
				fb := math.Float64frombits(fpRegs[ins.B])
				fpRegs[ins.Dst] = canonBits(fa * fb)
			case isa.OpFDiv:
				fa := math.Float64frombits(fpRegs[ins.A])
				fb := math.Float64frombits(fpRegs[ins.B])
				fpRegs[ins.Dst] = canonBits(fa / fb)
			case isa.OpFSqrt:
				fa := math.Float64frombits(fpRegs[ins.A])
				fpRegs[ins.Dst] = canonBits(math.Sqrt(math.Abs(fa)))
			case isa.OpFMov:
				fpRegs[ins.Dst] = fpRegs[ins.A]
			case isa.OpFCvt:
				fpRegs[ins.Dst] = canonBits(float64(int64(intRegs[ins.A])))
			case isa.OpFToI:
				intRegs[ins.Dst] = clampToInt64(math.Float64frombits(fpRegs[ins.A]))

			case isa.OpLoad:
				addr := (intRegs[ins.A] + uint64(ins.Imm)) & mask &^ 7
				v, ok := pristineWord(written, seed, addr)
				if !ok {
					v = tab.load(seed, addr>>3)
				}
				intRegs[ins.Dst] = v
			case isa.OpFLoad:
				addr := (intRegs[ins.A] + uint64(ins.Imm)) & mask &^ 7
				v, ok := pristineWord(written, seed, addr)
				if !ok {
					v = tab.load(seed, addr>>3)
				}
				fpRegs[ins.Dst] = canonFPBits(v)
			case isa.OpStore:
				addr := (intRegs[ins.A] + uint64(ins.Imm)) & mask &^ 7
				storeWord(tab, written, addr, intRegs[ins.B])
			case isa.OpFStore:
				addr := (intRegs[ins.A] + uint64(ins.Imm)) & mask &^ 7
				storeWord(tab, written, addr, fpRegs[ins.B])

			case isa.OpBeq:
				if intRegs[ins.A] == intRegs[ins.B] {
					next = ins.Target
				}
			case isa.OpBne:
				if intRegs[ins.A] != intRegs[ins.B] {
					next = ins.Target
				}
			case isa.OpBlt:
				if intRegs[ins.A] < intRegs[ins.B] {
					next = ins.Target
				}
			case isa.OpBge:
				if intRegs[ins.A] >= intRegs[ins.B] {
					next = ins.Target
				}
			case isa.OpHalt:
				// retired already accounts the halt (it is part of the
				// block); the stale untilSnap is irrelevant past this point.
				break blockLoop

			case isa.OpVAdd:
				va, vb := &m.vecRegs[ins.A], &m.vecRegs[ins.B]
				vd := &m.vecRegs[ins.Dst]
				for l := 0; l < isa.VecLanes; l++ {
					vd[l] = va[l] + vb[l]
				}
			case isa.OpVXor:
				va, vb := &m.vecRegs[ins.A], &m.vecRegs[ins.B]
				vd := &m.vecRegs[ins.Dst]
				for l := 0; l < isa.VecLanes; l++ {
					vd[l] = va[l] ^ vb[l]
				}
			case isa.OpVMul:
				va, vb := &m.vecRegs[ins.A], &m.vecRegs[ins.B]
				vd := &m.vecRegs[ins.Dst]
				for l := 0; l < isa.VecLanes; l++ {
					vd[l] = va[l] * vb[l]
				}
			case isa.OpVBcast:
				v := intRegs[ins.A]
				vd := &m.vecRegs[ins.Dst]
				for l := 0; l < isa.VecLanes; l++ {
					vd[l] = v + uint64(l)
				}
			case isa.OpVRed:
				va := &m.vecRegs[ins.A]
				intRegs[ins.Dst] = va[0] ^ va[1] ^ va[2] ^ va[3]

			// Fused superinstructions (fuse.go): exactly "first half, then
			// second half", the second half's operands unpacked from Imm.
			case isa.OpFuseCmpLTBne:
				var v uint64
				if intRegs[ins.A] < intRegs[ins.B] {
					v = 1
				}
				intRegs[ins.Dst] = v
				if intRegs[uint8(ins.Imm)] != intRegs[uint8(ins.Imm>>8)] {
					next = ins.Target
				}
			case isa.OpFuseRorAnd:
				k := intRegs[ins.B] & 63
				v := intRegs[ins.A]
				intRegs[ins.Dst] = (v >> k) | (v << ((64 - k) & 63))
				intRegs[uint8(ins.Imm)] = intRegs[uint8(ins.Imm>>8)] & intRegs[uint8(ins.Imm>>16)]
			case isa.OpFuseAddAdd:
				intRegs[ins.Dst] = intRegs[ins.A] + intRegs[ins.B]
				intRegs[uint8(ins.Imm)] = intRegs[uint8(ins.Imm>>8)] + intRegs[uint8(ins.Imm>>16)]
			case isa.OpFuseAddSub:
				intRegs[ins.Dst] = intRegs[ins.A] + intRegs[ins.B]
				intRegs[uint8(ins.Imm)] = intRegs[uint8(ins.Imm>>8)] - intRegs[uint8(ins.Imm>>16)]
			case isa.OpFuseAddXor:
				intRegs[ins.Dst] = intRegs[ins.A] + intRegs[ins.B]
				intRegs[uint8(ins.Imm)] = intRegs[uint8(ins.Imm>>8)] ^ intRegs[uint8(ins.Imm>>16)]
			case isa.OpFuseSubAdd:
				intRegs[ins.Dst] = intRegs[ins.A] - intRegs[ins.B]
				intRegs[uint8(ins.Imm)] = intRegs[uint8(ins.Imm>>8)] + intRegs[uint8(ins.Imm>>16)]
			case isa.OpFuseSubSub:
				intRegs[ins.Dst] = intRegs[ins.A] - intRegs[ins.B]
				intRegs[uint8(ins.Imm)] = intRegs[uint8(ins.Imm>>8)] - intRegs[uint8(ins.Imm>>16)]
			case isa.OpFuseSubXor:
				intRegs[ins.Dst] = intRegs[ins.A] - intRegs[ins.B]
				intRegs[uint8(ins.Imm)] = intRegs[uint8(ins.Imm>>8)] ^ intRegs[uint8(ins.Imm>>16)]
			case isa.OpFuseXorAdd:
				intRegs[ins.Dst] = intRegs[ins.A] ^ intRegs[ins.B]
				intRegs[uint8(ins.Imm)] = intRegs[uint8(ins.Imm>>8)] + intRegs[uint8(ins.Imm>>16)]
			case isa.OpFuseXorSub:
				intRegs[ins.Dst] = intRegs[ins.A] ^ intRegs[ins.B]
				intRegs[uint8(ins.Imm)] = intRegs[uint8(ins.Imm>>8)] - intRegs[uint8(ins.Imm>>16)]
			case isa.OpFuseXorXor:
				intRegs[ins.Dst] = intRegs[ins.A] ^ intRegs[ins.B]
				intRegs[uint8(ins.Imm)] = intRegs[uint8(ins.Imm>>8)] ^ intRegs[uint8(ins.Imm>>16)]
			}
		}
		bi = next
	}
	m.finishRun(&st, truncated, res)
}

// step is the reference definition of the instruction set: it executes
// from the start of block bi one architectural instruction at a time over
// the program's code, with the budget check, the snapshot countdown and the
// accounting done per instruction. Every engine meets it. The fast loop
// and native code hand it the rare block that straddles an
// instruction-budget or snapshot boundary — obs is nil — and get control
// back at the end of that block, with the block to go on at (stepNext), so
// truncation points, snapshot contents and retired counts never depend on
// block shape, fusion or code generation. An observed run is this function
// from start to finish: with obs attached it is told of each retirement,
// and there is no fast engine to return to, so step goes on through block
// after block and returns only a terminal status.
func (m *Machine) step(bi uint32, st *execState, res *Result, obs Observer) (uint32, stepStatus) {
	code, blocks := m.prog.Code, m.prog.Blocks
	tab, written, seed := &m.table, m.written, m.prog.MemSeed
	intRegs := &m.intRegs
	fpRegs := &m.fpRegs
	mask := uint64(m.prog.MemSize - 1)

	for {
		blk := &blocks[bi]
		bi++ // where a block that does not branch away continues
		for pc, end := blk.Start, blk.Start+blk.Len; pc < end; pc++ {
			if st.retired >= st.maxInstr {
				return 0, stepTrunc
			}
			ins := &code[pc]
			taken, halt := false, false
			var addr uint64 // effective address of a load or store, for the observer

			switch ins.Op {
			case isa.OpAdd:
				intRegs[ins.Dst] = intRegs[ins.A] + intRegs[ins.B]
			case isa.OpSub:
				intRegs[ins.Dst] = intRegs[ins.A] - intRegs[ins.B]
			case isa.OpAnd:
				intRegs[ins.Dst] = intRegs[ins.A] & intRegs[ins.B]
			case isa.OpOr:
				intRegs[ins.Dst] = intRegs[ins.A] | intRegs[ins.B]
			case isa.OpXor:
				intRegs[ins.Dst] = intRegs[ins.A] ^ intRegs[ins.B]
			case isa.OpShl:
				intRegs[ins.Dst] = intRegs[ins.A] << (intRegs[ins.B] & 63)
			case isa.OpShr:
				intRegs[ins.Dst] = intRegs[ins.A] >> (intRegs[ins.B] & 63)
			case isa.OpRor:
				k := intRegs[ins.B] & 63
				v := intRegs[ins.A]
				intRegs[ins.Dst] = (v >> k) | (v << ((64 - k) & 63))
			case isa.OpCmpLT:
				if intRegs[ins.A] < intRegs[ins.B] {
					intRegs[ins.Dst] = 1
				} else {
					intRegs[ins.Dst] = 0
				}
			case isa.OpCmpEQ:
				if intRegs[ins.A] == intRegs[ins.B] {
					intRegs[ins.Dst] = 1
				} else {
					intRegs[ins.Dst] = 0
				}
			case isa.OpMov:
				intRegs[ins.Dst] = intRegs[ins.A]
			case isa.OpMovI:
				intRegs[ins.Dst] = uint64(ins.Imm)
			case isa.OpAddI:
				intRegs[ins.Dst] = intRegs[ins.A] + uint64(ins.Imm)

			case isa.OpMul:
				intRegs[ins.Dst] = intRegs[ins.A] * intRegs[ins.B]
			case isa.OpMulH:
				hi, _ := mul64(intRegs[ins.A], intRegs[ins.B])
				intRegs[ins.Dst] = hi

			case isa.OpFAdd:
				fa := math.Float64frombits(fpRegs[ins.A])
				fb := math.Float64frombits(fpRegs[ins.B])
				fpRegs[ins.Dst] = canonBits(fa + fb)
			case isa.OpFSub:
				fa := math.Float64frombits(fpRegs[ins.A])
				fb := math.Float64frombits(fpRegs[ins.B])
				fpRegs[ins.Dst] = canonBits(fa - fb)
			case isa.OpFMul:
				fa := math.Float64frombits(fpRegs[ins.A])
				fb := math.Float64frombits(fpRegs[ins.B])
				fpRegs[ins.Dst] = canonBits(fa * fb)
			case isa.OpFDiv:
				fa := math.Float64frombits(fpRegs[ins.A])
				fb := math.Float64frombits(fpRegs[ins.B])
				fpRegs[ins.Dst] = canonBits(fa / fb)
			case isa.OpFSqrt:
				fa := math.Float64frombits(fpRegs[ins.A])
				fpRegs[ins.Dst] = canonBits(math.Sqrt(math.Abs(fa)))
			case isa.OpFMov:
				fpRegs[ins.Dst] = fpRegs[ins.A]
			case isa.OpFCvt:
				fpRegs[ins.Dst] = canonBits(float64(int64(intRegs[ins.A])))
			case isa.OpFToI:
				intRegs[ins.Dst] = clampToInt64(math.Float64frombits(fpRegs[ins.A]))

			case isa.OpLoad:
				addr = (intRegs[ins.A] + uint64(ins.Imm)) & mask &^ 7
				intRegs[ins.Dst] = loadWord(tab, written, seed, addr)
			case isa.OpFLoad:
				addr = (intRegs[ins.A] + uint64(ins.Imm)) & mask &^ 7
				fpRegs[ins.Dst] = canonFPBits(loadWord(tab, written, seed, addr))
			case isa.OpStore:
				addr = (intRegs[ins.A] + uint64(ins.Imm)) & mask &^ 7
				storeWord(tab, written, addr, intRegs[ins.B])
			case isa.OpFStore:
				addr = (intRegs[ins.A] + uint64(ins.Imm)) & mask &^ 7
				storeWord(tab, written, addr, fpRegs[ins.B])

			case isa.OpBeq:
				if intRegs[ins.A] == intRegs[ins.B] {
					taken = true
				}
			case isa.OpBne:
				if intRegs[ins.A] != intRegs[ins.B] {
					taken = true
				}
			case isa.OpBlt:
				if intRegs[ins.A] < intRegs[ins.B] {
					taken = true
				}
			case isa.OpBge:
				if intRegs[ins.A] >= intRegs[ins.B] {
					taken = true
				}
			case isa.OpJmp:
				taken = true
			case isa.OpHalt:
				halt = true

			case isa.OpVAdd:
				va, vb := &m.vecRegs[ins.A], &m.vecRegs[ins.B]
				vd := &m.vecRegs[ins.Dst]
				for l := 0; l < isa.VecLanes; l++ {
					vd[l] = va[l] + vb[l]
				}
			case isa.OpVXor:
				va, vb := &m.vecRegs[ins.A], &m.vecRegs[ins.B]
				vd := &m.vecRegs[ins.Dst]
				for l := 0; l < isa.VecLanes; l++ {
					vd[l] = va[l] ^ vb[l]
				}
			case isa.OpVMul:
				va, vb := &m.vecRegs[ins.A], &m.vecRegs[ins.B]
				vd := &m.vecRegs[ins.Dst]
				for l := 0; l < isa.VecLanes; l++ {
					vd[l] = va[l] * vb[l]
				}
			case isa.OpVBcast:
				v := intRegs[ins.A]
				vd := &m.vecRegs[ins.Dst]
				for l := 0; l < isa.VecLanes; l++ {
					vd[l] = v + uint64(l)
				}
			case isa.OpVRed:
				va := &m.vecRegs[ins.A]
				intRegs[ins.Dst] = va[0] ^ va[1] ^ va[2] ^ va[3]
			}

			st.retired++
			if obs != nil {
				m.event = Event{
					StaticID: pc,
					Op:       ins.Op,
					Class:    ins.Class,
					Dst:      ins.Dst,
					A:        ins.A,
					B:        ins.B,
					Addr:     addr,
					IsMem:    ins.Class == isa.ClassLoad || ins.Class == isa.ClassStore,
					Taken:    taken,
				}
				obs.OnRetire(&m.event)
			}
			if halt {
				// A halt retires but never advances the snapshot countdown:
				// the final snapshot is the one that records it.
				return 0, stepHalt
			}
			st.untilSnap--
			if st.untilSnap == 0 {
				res.Output = m.appendSnapshot(res.Output, st.retired)
				res.Snapshots++
				st.untilSnap = st.snapInterval
			}
			if taken {
				bi = ins.Target // the target, as a block index
				break
			}
		}
		if obs == nil {
			return bi, stepNext
		}
	}
}

// runObserved is the instrumented run: the reference step from block 0 to
// the end with the observer attached, so each retired instruction is
// described to obs, including effective addresses and branch outcomes. It
// retires exactly the architectural state the fast engines do — they send
// their boundary blocks through the same step.
func (m *Machine) runObserved(params Params, obs Observer, res *Result) {
	st := newExecState(params)
	_, status := m.step(0, &st, res, obs)
	m.finishRun(&st, status == stepTrunc, res)
}

// finishRun closes a run on any engine: the final snapshot captures the
// terminal state (always emitted, so even an empty program contributes
// output) and the retired count moves into res.
func (m *Machine) finishRun(st *execState, truncated bool, res *Result) {
	res.Output = m.appendSnapshot(res.Output, st.retired)
	res.Snapshots++
	res.Retired = st.retired
	res.Truncated = truncated
}

// appendSnapshot serializes the architectural register state.
func (m *Machine) appendSnapshot(out []byte, retired uint64) []byte {
	var buf [SnapshotSize]byte
	off := 0
	for _, r := range m.intRegs {
		binary.LittleEndian.PutUint64(buf[off:], r)
		off += 8
	}
	for _, r := range m.fpRegs {
		binary.LittleEndian.PutUint64(buf[off:], r)
		off += 8
	}
	for i := range m.vecRegs {
		v := &m.vecRegs[i]
		binary.LittleEndian.PutUint64(buf[off:], v[0]^v[1]^v[2]^v[3])
		off += 8
	}
	binary.LittleEndian.PutUint64(buf[off:], retired)
	return append(out, buf[:]...)
}

// Run is a convenience wrapper: validate, build a machine, execute.
func Run(p *prog.Program, params Params, obs Observer) (*Result, error) {
	m, err := New(p)
	if err != nil {
		return nil, err
	}
	return m.Run(params, obs), nil
}

// canonBits converts an FP result to register bits, canonicalizing NaN so
// that only one NaN bit pattern is ever architecturally visible.
func canonBits(f float64) uint64 {
	if f != f {
		return canonicalNaN
	}
	return math.Float64bits(f)
}

// canonFPBits canonicalizes raw bits loaded from memory into an FP
// register (memory contents are arbitrary and may encode any NaN).
func canonFPBits(bits uint64) uint64 {
	f := math.Float64frombits(bits)
	if f != f {
		return canonicalNaN
	}
	return bits
}

// clampToInt64 converts a float64 to int64 (as uint64 bits) with
// fully-defined saturation semantics: NaN -> 0, overflow clamps.
// Go's float-to-int conversion is implementation-defined out of range, so
// the VM defines it explicitly.
func clampToInt64(f float64) uint64 {
	switch {
	case f != f:
		return 0
	case f >= math.MaxInt64:
		return uint64(math.MaxInt64)
	case f <= math.MinInt64:
		return 1 << 63
	default:
		return uint64(int64(f))
	}
}

// mul64 returns the full 128-bit product of a and b. The full product is
// exact, so the hardware multiply via math/bits is bit-identical to the
// former long-multiplication routine on every platform (the JIT backend
// emits MULX/MUL for the same opcode, pinned by the cross-backend digest
// tests).
func mul64(a, b uint64) (hi, lo uint64) {
	return bits.Mul64(a, b)
}
