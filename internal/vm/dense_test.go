package vm_test

// A test-only dense reference executor: the oracle the sparse scratch
// memory is checked against. It shares no code with package vm — its own
// per-instruction loop over prog.Program, its own snapshot encoding, and a
// scratch image that is actually built, word by word with
// rng.SplitMix64At, and then read and written as a plain array. What the
// overlay computes on load, this fetches; if the two ever disagree on one
// word, a snapshot differs. It also counts, per instruction, what the VM
// leaves to observers — retirements per class, conditional branches and
// those taken — and is the reference uarch.Counter is held to.

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
	"testing"

	"hashcore/internal/isa"
	"hashcore/internal/perfprox"
	"hashcore/internal/prog"
	"hashcore/internal/rng"
	"hashcore/internal/uarch"
	"hashcore/internal/vm"
	"hashcore/internal/workload"
)

const denseNaN = 0x7ff8000000000000

func denseCanon(f float64) uint64 {
	if f != f {
		return denseNaN
	}
	return math.Float64bits(f)
}

func denseBool(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func denseFToI(f float64) uint64 {
	switch {
	case f != f:
		return 0
	case f >= math.MaxInt64:
		return math.MaxInt64
	case f <= math.MinInt64:
		return 1 << 63
	}
	return uint64(int64(f))
}

// denseRun is the dense reference's outcome: the Result every engine must
// match, and the counts an observer must.
type denseRun struct {
	vm.Result
	classes                     [isa.NumClasses]uint64
	condBranches, takenBranches uint64
}

// runDense executes p to completion on the dense reference.
func runDense(p *prog.Program, params vm.Params) *denseRun {
	if params.SnapshotInterval == 0 {
		params.SnapshotInterval = vm.DefaultSnapshotInterval
	}
	if params.MaxInstructions == 0 {
		params.MaxInstructions = vm.DefaultMaxInstructions
	}
	mem := make([]uint64, p.MemSize/8)
	for i := range mem {
		mem[i] = rng.SplitMix64At(p.MemSeed, uint64(i))
	}
	wordOf := func(base uint64, imm int64) uint64 {
		return (base + uint64(imm)) & uint64(p.MemSize-1) >> 3
	}
	var (
		ir  [isa.NumIntRegs]uint64
		fr  [isa.NumFPRegs]uint64
		vr  [isa.NumVecRegs][isa.VecLanes]uint64
		res = &denseRun{}
	)
	snapshot := func() {
		var w [8]byte
		put := func(v uint64) {
			binary.LittleEndian.PutUint64(w[:], v)
			res.Output = append(res.Output, w[:]...)
		}
		for _, r := range ir {
			put(r)
		}
		for _, r := range fr {
			put(r)
		}
		for _, v := range vr {
			put(v[0] ^ v[1] ^ v[2] ^ v[3])
		}
		put(res.Retired)
		res.Snapshots++
	}
	f64 := math.Float64frombits
	untilSnap := params.SnapshotInterval
	bi, ii := 0, 0
run:
	for {
		for ii >= len(p.Instrs(bi)) { // fall through, past empty blocks too
			bi, ii = bi+1, 0
		}
		if res.Retired >= params.MaxInstructions {
			res.Truncated = true
			break
		}
		ins := p.Instrs(bi)[ii]
		d, a, b := ins.Dst, ins.A, ins.B
		taken := false
		switch ins.Op {
		case isa.OpAdd:
			ir[d] = ir[a] + ir[b]
		case isa.OpSub:
			ir[d] = ir[a] - ir[b]
		case isa.OpAnd:
			ir[d] = ir[a] & ir[b]
		case isa.OpOr:
			ir[d] = ir[a] | ir[b]
		case isa.OpXor:
			ir[d] = ir[a] ^ ir[b]
		case isa.OpShl:
			ir[d] = ir[a] << (ir[b] % 64)
		case isa.OpShr:
			ir[d] = ir[a] >> (ir[b] % 64)
		case isa.OpRor:
			ir[d] = bits.RotateLeft64(ir[a], -int(ir[b]%64))
		case isa.OpCmpLT:
			ir[d] = denseBool(ir[a] < ir[b])
		case isa.OpCmpEQ:
			ir[d] = denseBool(ir[a] == ir[b])
		case isa.OpMov:
			ir[d] = ir[a]
		case isa.OpMovI:
			ir[d] = uint64(ins.Imm)
		case isa.OpAddI:
			ir[d] = ir[a] + uint64(ins.Imm)
		case isa.OpMul:
			ir[d] = ir[a] * ir[b]
		case isa.OpMulH:
			ir[d], _ = bits.Mul64(ir[a], ir[b])
		case isa.OpFAdd:
			fr[d] = denseCanon(f64(fr[a]) + f64(fr[b]))
		case isa.OpFSub:
			fr[d] = denseCanon(f64(fr[a]) - f64(fr[b]))
		case isa.OpFMul:
			fr[d] = denseCanon(f64(fr[a]) * f64(fr[b]))
		case isa.OpFDiv:
			fr[d] = denseCanon(f64(fr[a]) / f64(fr[b]))
		case isa.OpFSqrt:
			fr[d] = denseCanon(math.Sqrt(math.Abs(f64(fr[a]))))
		case isa.OpFMov:
			fr[d] = fr[a]
		case isa.OpFCvt:
			fr[d] = denseCanon(float64(int64(ir[a])))
		case isa.OpFToI:
			ir[d] = denseFToI(f64(fr[a]))
		case isa.OpLoad:
			ir[d] = mem[wordOf(ir[a], ins.Imm)]
		case isa.OpFLoad:
			fr[d] = denseCanon(f64(mem[wordOf(ir[a], ins.Imm)]))
		case isa.OpStore:
			mem[wordOf(ir[a], ins.Imm)] = ir[b]
		case isa.OpFStore:
			mem[wordOf(ir[a], ins.Imm)] = fr[b]
		case isa.OpBeq:
			taken = ir[a] == ir[b]
		case isa.OpBne:
			taken = ir[a] != ir[b]
		case isa.OpBlt:
			taken = ir[a] < ir[b]
		case isa.OpBge:
			taken = ir[a] >= ir[b]
		case isa.OpJmp:
			taken = true
		case isa.OpHalt:
			res.Retired++
			res.classes[ins.Op.ClassOf()]++
			break run
		case isa.OpVAdd:
			for l := range vr[d] {
				vr[d][l] = vr[a][l] + vr[b][l]
			}
		case isa.OpVXor:
			for l := range vr[d] {
				vr[d][l] = vr[a][l] ^ vr[b][l]
			}
		case isa.OpVMul:
			for l := range vr[d] {
				vr[d][l] = vr[a][l] * vr[b][l]
			}
		case isa.OpVBcast:
			for l := range vr[d] {
				vr[d][l] = ir[a] + uint64(l)
			}
		case isa.OpVRed:
			ir[d] = vr[a][0] ^ vr[a][1] ^ vr[a][2] ^ vr[a][3]
		default:
			panic("dense reference: opcode " + ins.Op.String())
		}
		if ins.Op.IsCondBranch() {
			res.condBranches++
			if taken {
				res.takenBranches++
			}
		}
		res.Retired++
		res.classes[ins.Op.ClassOf()]++
		if untilSnap--; untilSnap == 0 {
			snapshot()
			untilSnap = params.SnapshotInterval
		}
		if taken {
			bi, ii = int(ins.Target), 0
		} else {
			ii++
		}
	}
	snapshot()
	return res
}

// sameResult reports the first field in which an engine's result differs
// from the dense reference's.
func sameResult(a *vm.Result, b *denseRun) (string, bool) {
	switch {
	case !bytes.Equal(a.Output, b.Output):
		return "Output", false
	case a.Retired != b.Retired:
		return "Retired", false
	case a.Truncated != b.Truncated:
		return "Truncated", false
	case a.Snapshots != b.Snapshots:
		return "Snapshots", false
	}
	return "", true
}

// sameCounts reports whether a Counter counted what the dense reference
// did.
func sameCounts(c *uarch.Counter, want *denseRun) bool {
	return c.Classes == want.classes && c.CondBranches == want.condBranches && c.TakenBranches == want.takenBranches
}

// sparseEngines are the fast engines, whose memory is the overlay.
func sparseEngines() []vm.Backend {
	if vm.NativeSupported() {
		return []vm.Backend{vm.BackendInterp, vm.BackendNative}
	}
	return []vm.Backend{vm.BackendInterp}
}

// checkSparseVsDense runs the program loaded in m on every engine the
// package has — the fused interpreter loop, native code, and the
// per-instruction reference step on its own (a uarch.Counter attached,
// which must count what the dense reference counted) — and requires each
// result to equal the dense reference's run of p: the program m holds, or
// the one it was derived from.
func checkSparseVsDense(t *testing.T, m *vm.Machine, p *prog.Program, params vm.Params) *denseRun {
	t.Helper()
	want := runDense(p, params)
	check := func(engine string, got *vm.Result) {
		t.Helper()
		if field, ok := sameResult(got, want); !ok {
			t.Fatalf("params %+v: %s and dense reference differ in %s:\n %s %+v\n dense   %+v",
				params, engine, field, engine, summary(got), summary(&want.Result))
		}
	}
	for _, be := range sparseEngines() {
		var got vm.Result
		m.SetBackend(be)
		m.RunInto(params, nil, &got)
		if st := m.LastRunStats(); st.Backend != be {
			t.Fatalf("params %+v: asked for %v, ran on %v (%v)", params, be, st.Backend, st.FallbackErr)
		}
		check(be.String(), &got)
	}
	var got vm.Result
	var c uarch.Counter
	m.RunInto(params, &c, &got)
	check("reference step", &got)
	if !sameCounts(&c, want) {
		t.Fatalf("params %+v: the observer counted classes %v, %d/%d branches taken; the dense reference %v, %d/%d",
			params, c.Classes, c.TakenBranches, c.CondBranches, want.classes, want.takenBranches, want.condBranches)
	}
	return want
}

// summary is a Result without its output bytes, for failure messages.
func summary(r *vm.Result) vm.Result {
	s := *r
	s.Output = nil
	return s
}

// TestProfilerCountsMatchDense holds the profiler to the dense reference:
// on one full-size widget of each profile, the class mix and the
// branch-taken rate that MeasureFunctional (a uarch.Counter) and Measure
// (the timing core) report are the dense reference's per-instruction
// counts over its retirements, to the last bit.
func TestProfilerCountsMatchDense(t *testing.T) {
	for _, name := range workload.Names() {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := perfprox.NewGenerator(w.Profile, perfprox.Params{})
		if err != nil {
			t.Fatal(err)
		}
		p, err := gen.Generate(seedFromWords(1, 0xc0c0))
		if err != nil {
			t.Fatal(err)
		}
		dense := runDense(p, vm.Params{})
		functional, err := uarch.MeasureFunctional(name, p, vm.Params{})
		if err != nil {
			t.Fatal(err)
		}
		timed, err := uarch.Measure(name, p, uarch.IvyBridge(), vm.Params{})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []*uarch.Report{functional, timed} {
			if r.DynamicInstructions != dense.Retired {
				t.Fatalf("%s: report retired %d, dense %d", name, r.DynamicInstructions, dense.Retired)
			}
			for _, class := range isa.Classes {
				if got, want := r.Mix[class], float64(dense.classes[class])/float64(dense.Retired); got != want {
					t.Errorf("%s (IPC %.2f): %s share %v, dense %v", name, r.IPC, class, got, want)
				}
			}
			if got, want := r.BranchTaken, float64(dense.takenBranches)/float64(dense.condBranches); got != want {
				t.Errorf("%s (IPC %.2f): branch-taken rate %v, dense %v", name, r.IPC, got, want)
			}
		}
	}
}
