package vm_test

// A test-only dense reference executor: the oracle the sparse scratch
// memory is checked against. It shares no code with package vm — its own
// per-instruction loop over prog.Program, its own snapshot encoding, and a
// scratch image that is actually built, word by word with
// rng.SplitMix64At, and then read and written as a plain array. What the
// overlay computes on load, this fetches; if the two ever disagree on one
// word, a snapshot differs.

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
	"testing"

	"hashcore/internal/isa"
	"hashcore/internal/prog"
	"hashcore/internal/rng"
	"hashcore/internal/vm"
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

// runDense executes p to completion on the dense reference.
func runDense(p *prog.Program, params vm.Params) *vm.Result {
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
		res = &vm.Result{}
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
			res.ClassCounts[ins.Op.ClassOf()]++
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
			res.CondBranches++
			if taken {
				res.TakenBranches++
			}
		}
		res.Retired++
		res.ClassCounts[ins.Op.ClassOf()]++
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

// sameResult reports the first field in which two results differ.
func sameResult(a, b *vm.Result) (string, bool) {
	switch {
	case !bytes.Equal(a.Output, b.Output):
		return "Output", false
	case a.Retired != b.Retired:
		return "Retired", false
	case a.Truncated != b.Truncated:
		return "Truncated", false
	case a.Snapshots != b.Snapshots:
		return "Snapshots", false
	case a.ClassCounts != b.ClassCounts:
		return "ClassCounts", false
	case a.CondBranches != b.CondBranches || a.TakenBranches != b.TakenBranches:
		return "branch counts", false
	}
	return "", true
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
// per-instruction reference step on its own (an observer attached, which
// must be told of every retirement) — and requires each result to equal
// the dense reference's run of p: the program m holds, or the one it was
// derived from.
func checkSparseVsDense(t *testing.T, m *vm.Machine, p *prog.Program, params vm.Params) *vm.Result {
	t.Helper()
	want := runDense(p, params)
	check := func(engine string, got *vm.Result) {
		t.Helper()
		if field, ok := sameResult(got, want); !ok {
			t.Fatalf("params %+v: %s and dense reference differ in %s:\n %s %+v\n dense   %+v",
				params, engine, field, engine, summary(got), summary(want))
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
	obs := &nullObserver{}
	m.RunInto(params, obs, &got)
	check("reference step", &got)
	if obs.retired != want.Retired {
		t.Fatalf("params %+v: the observer was told of %d retirements, the run retired %d", params, obs.retired, want.Retired)
	}
	return want
}

// summary is a Result without its output bytes, for failure messages.
func summary(r *vm.Result) vm.Result {
	s := *r
	s.Output = nil
	return s
}
