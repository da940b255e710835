package uarch

import (
	"testing"

	"hashcore/internal/isa"
	"hashcore/internal/prog"
	"hashcore/internal/vm"
	"hashcore/internal/workload/refprog"
)

// loopProgram builds a program that runs `body` inside a counted loop of
// the given trip count, so instruction-cache and predictor state warm up.
func loopProgram(t *testing.T, trips int64, memSize int, body func(b *refprog.Builder)) *prog.Program {
	t.Helper()
	b := refprog.NewBuilder(memSize, 99)
	entry := b.NewBlock()
	loop := b.NewBlock()
	exit := b.NewBlock()

	b.SetBlock(entry)
	b.MovI(15, trips)
	b.MovI(14, 0) // zero register by convention in these tests
	b.Jmp(loop)

	b.SetBlock(loop)
	body(b)
	b.AddI(15, 15, -1)
	b.Branch(isa.OpBne, 15, 14, loop)

	b.SetBlock(exit)
	b.Halt()

	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func measure(t *testing.T, p *prog.Program) Metrics {
	t.Helper()
	m, _, err := MeasureProgram(p, IvyBridge(), vm.Params{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestIndependentALUOpsReachPortLimit(t *testing.T) {
	// 3 integer ALU units, fetch width 4: independent adds should sustain
	// close to 3 IPC once warm.
	p := loopProgram(t, 200, prog.MinMemSize, func(b *refprog.Builder) {
		for i := 0; i < 120; i++ {
			dst := uint8(1 + i%12)
			b.Op3(isa.OpAdd, dst, dst, 13)
		}
	})
	m := measure(t, p)
	if m.IPC < 2.4 || m.IPC > 3.3 {
		t.Errorf("independent-ALU IPC = %.2f, want ~3 (port limit)", m.IPC)
	}
}

func TestDependentChainSerializes(t *testing.T) {
	// A single dependence chain of 1-cycle adds cannot exceed 1 IPC.
	p := loopProgram(t, 200, prog.MinMemSize, func(b *refprog.Builder) {
		for i := 0; i < 120; i++ {
			b.Op3(isa.OpAdd, 1, 1, 1)
		}
	})
	m := measure(t, p)
	if m.IPC < 0.7 || m.IPC > 1.3 {
		t.Errorf("dependent-chain IPC = %.2f, want ~1", m.IPC)
	}
}

func TestNonPipelinedDividerThroughput(t *testing.T) {
	// fdiv is non-pipelined with latency 14; even independent divides are
	// limited to ~1/14 IPC by the single FP divider... plus the loop
	// bookkeeping instructions, so just assert it is very low.
	p := loopProgram(t, 100, prog.MinMemSize, func(b *refprog.Builder) {
		for i := 0; i < 30; i++ {
			b.Op3(isa.OpFDiv, uint8(1+i%8), 9, 10)
		}
	})
	m := measure(t, p)
	if m.IPC > 0.35 {
		t.Errorf("fdiv IPC = %.2f, want < 0.35 (divider-bound)", m.IPC)
	}
}

func TestMulLatencyBetweenALUAndDiv(t *testing.T) {
	pChain := loopProgram(t, 200, prog.MinMemSize, func(b *refprog.Builder) {
		for i := 0; i < 60; i++ {
			b.Op3(isa.OpMul, 1, 1, 2)
		}
	})
	m := measure(t, pChain)
	// Dependent multiplies: one per 3 cycles -> IPC ~1/3 plus loop ops.
	if m.IPC < 0.2 || m.IPC > 0.6 {
		t.Errorf("dependent-mul IPC = %.2f, want ~1/3", m.IPC)
	}
}

func TestPointerChaseMemoryBound(t *testing.T) {
	// Dependent loads over a large working set: every chain step pays a
	// deep-hierarchy latency. Compare against a tiny working set where
	// loads hit L1.
	mkChase := func(memSize int) *prog.Program {
		return loopProgram(t, 400, memSize, func(b *refprog.Builder) {
			for i := 0; i < 10; i++ {
				b.Load(1, 1, 0) // r1 = mem[r1] — serial chain
			}
		})
	}
	large := measure(t, mkChase(64<<20)) // 64 MiB >> 15 MiB L3
	small := measure(t, mkChase(prog.MinMemSize))
	if large.IPC*4 > small.IPC {
		t.Errorf("pointer chase: large-WS IPC %.3f not much slower than small-WS IPC %.3f",
			large.IPC, small.IPC)
	}
	if large.MemAccess == 0 {
		t.Error("large working set never reached memory")
	}
	if small.L1DHitRate < 0.95 {
		t.Errorf("small working set L1D hit rate = %.3f, want ~1", small.L1DHitRate)
	}
}

func TestBranchMispredictionHurtsIPC(t *testing.T) {
	// Data-dependent branches on pseudo-random memory bits vs. the same
	// loop with an always-false condition.
	// Use a 1 MiB scratch so the loaded stream never wraps: with a tiny
	// memory the "random" bits repeat and history predictors memorize them.
	mk := func(randomCond bool) *prog.Program {
		b := refprog.NewBuilder(prog.DefaultMemSize, 7)
		entry := b.NewBlock()
		loop := b.NewBlock()
		then := b.NewBlock()
		join := b.NewBlock()
		exit := b.NewBlock()

		b.SetBlock(entry)
		b.MovI(15, 3000)
		b.MovI(14, 0)
		b.MovI(13, 1)
		b.MovI(12, 0) // pointer
		b.Jmp(loop)

		b.SetBlock(loop)
		b.Load(1, 12, 0)
		b.AddI(12, 12, 8)
		if randomCond {
			b.Op3(isa.OpAnd, 2, 1, 13) // random bit from memory
		} else {
			b.MovI(2, 0)
		}
		b.Branch(isa.OpBne, 2, 14, then)

		b.SetBlock(then)
		b.Op3(isa.OpXor, 3, 3, 1)
		b.Jmp(join)

		b.SetBlock(join)
		b.AddI(15, 15, -1)
		b.Branch(isa.OpBne, 15, 14, loop)

		b.SetBlock(exit)
		b.Halt()
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	random := measure(t, mk(true))
	predictable := measure(t, mk(false))

	if random.BranchAccuracy > 0.9 {
		t.Errorf("random-branch accuracy = %.3f, expected well below 0.9", random.BranchAccuracy)
	}
	if predictable.BranchAccuracy < 0.98 {
		t.Errorf("predictable-branch accuracy = %.3f, want ~1", predictable.BranchAccuracy)
	}
	if random.IPC >= predictable.IPC {
		t.Errorf("mispredictions did not reduce IPC: random %.2f vs predictable %.2f",
			random.IPC, predictable.IPC)
	}
	if random.MPKI <= predictable.MPKI {
		t.Errorf("MPKI: random %.2f vs predictable %.2f", random.MPKI, predictable.MPKI)
	}
}

func TestROBLimitsMemoryParallelism(t *testing.T) {
	// Independent long-latency loads beyond the ROB window cannot all
	// overlap: a tiny ROB should be slower than the real one.
	mk := func(robSize int) Metrics {
		p := loopProgram(t, 300, 64<<20, func(b *refprog.Builder) {
			for i := 0; i < 12; i++ {
				dst := uint8(1 + i%10)
				// Independent strided loads: address = r13 + stride*i
				b.Load(dst, 13, int64(i*4096))
			}
			b.AddI(13, 13, 8) // advance base slowly
		})
		cfg := IvyBridge()
		cfg.ROBSize = robSize
		m, _, err := MeasureProgram(p, cfg, vm.Params{})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	tiny := mk(4)
	big := mk(168)
	if big.IPC <= tiny.IPC*1.5 {
		t.Errorf("ROB scaling: big-ROB IPC %.3f should be well above tiny-ROB IPC %.3f",
			big.IPC, tiny.IPC)
	}
}

func TestMetricsBookkeeping(t *testing.T) {
	p := loopProgram(t, 50, prog.MinMemSize, func(b *refprog.Builder) {
		b.Op3(isa.OpAdd, 1, 1, 2)
		b.Load(3, 1, 0)
		b.Store(1, 3, 64)
		b.Op3(isa.OpFAdd, 1, 2, 3)
		b.Op3(isa.OpVXor, 0, 0, 0)
		b.Op3(isa.OpMul, 4, 4, 1)
	})
	m := measure(t, p)
	if m.Instructions == 0 || m.Cycles <= 0 {
		t.Fatal("no instructions or cycles recorded")
	}
	if m.ClassCounts[isa.ClassLoad] != 50 {
		t.Errorf("load count = %d, want 50", m.ClassCounts[isa.ClassLoad])
	}
	if m.ClassCounts[isa.ClassStore] != 50 {
		t.Errorf("store count = %d, want 50", m.ClassCounts[isa.ClassStore])
	}
	if m.CondBranches != 50 {
		t.Errorf("cond branches = %d, want 50", m.CondBranches)
	}
	if m.IPC <= 0 {
		t.Error("IPC not computed")
	}
}

func TestCoreReset(t *testing.T) {
	p := loopProgram(t, 100, prog.MinMemSize, func(b *refprog.Builder) {
		b.Op3(isa.OpAdd, 1, 1, 2)
	})
	core := NewCore(IvyBridge())
	if _, err := vm.Run(p, vm.Params{}, core); err != nil {
		t.Fatal(err)
	}
	first := core.Metrics()
	core.Reset()
	if m := core.Metrics(); m.Instructions != 0 || m.Cycles != 0 {
		t.Fatal("Reset did not clear metrics")
	}
	if _, err := vm.Run(p, vm.Params{}, core); err != nil {
		t.Fatal(err)
	}
	second := core.Metrics()
	if first.Instructions != second.Instructions || first.Cycles != second.Cycles {
		t.Errorf("metrics differ across reset: %v vs %v cycles", first.Cycles, second.Cycles)
	}
}

func TestICachePressureSlowsLargeFootprint(t *testing.T) {
	// A loop body larger than L1I (32 KiB / 16 B = 2048 instructions)
	// should run at lower IPC than a small body with the same mix.
	small := measure(t, loopProgram(t, 600, prog.MinMemSize, func(b *refprog.Builder) {
		for i := 0; i < 100; i++ {
			dst := uint8(1 + i%12)
			b.Op3(isa.OpAdd, dst, dst, 13)
		}
	}))
	big := measure(t, loopProgram(t, 20, prog.MinMemSize, func(b *refprog.Builder) {
		for i := 0; i < 3000; i++ {
			dst := uint8(1 + i%12)
			b.Op3(isa.OpAdd, dst, dst, 13)
		}
	}))
	if big.L1IHitRate >= 0.999 {
		t.Errorf("large footprint L1I hit rate = %.4f, expected misses", big.L1IHitRate)
	}
	if small.L1IHitRate < 0.99 {
		t.Errorf("small footprint L1I hit rate = %.4f, want ~1", small.L1IHitRate)
	}
	if big.IPC >= small.IPC {
		t.Errorf("I-cache pressure did not reduce IPC: big %.2f vs small %.2f", big.IPC, small.IPC)
	}
}

func BenchmarkCoreSimulation(b *testing.B) {
	bd := refprog.NewBuilder(prog.DefaultMemSize, 1)
	entry := bd.NewBlock()
	loop := bd.NewBlock()
	exit := bd.NewBlock()
	bd.SetBlock(entry)
	bd.MovI(15, 20000)
	bd.MovI(14, 0)
	bd.Jmp(loop)
	bd.SetBlock(loop)
	for i := 0; i < 10; i++ {
		bd.Op3(isa.OpAdd, uint8(1+i%8), uint8(1+i%8), 13)
		bd.Load(9, 9, 0)
	}
	bd.AddI(15, 15, -1)
	bd.Branch(isa.OpBne, 15, 14, loop)
	bd.SetBlock(exit)
	bd.Halt()
	p := bd.MustBuild()

	b.ResetTimer()
	var instr uint64
	for i := 0; i < b.N; i++ {
		core := NewCore(IvyBridge())
		res, err := vm.Run(p, vm.Params{}, core)
		if err != nil {
			b.Fatal(err)
		}
		instr += res.Retired
	}
	b.ReportMetric(float64(instr)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}
