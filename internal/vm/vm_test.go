package vm

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"hashcore/internal/isa"
	"hashcore/internal/prog"
	"hashcore/internal/rng"
)

// build runs fn against a fresh builder and returns the built program.
func build(t *testing.T, fn func(b *prog.Builder)) *prog.Program {
	t.Helper()
	b := prog.NewBuilder(prog.MinMemSize, 12345)
	b.NewBlock()
	fn(b)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("building test program: %v", err)
	}
	return p
}

// exec builds, runs, and returns the machine (for register inspection) and
// result.
func exec(t *testing.T, fn func(b *prog.Builder)) (*Machine, *Result) {
	t.Helper()
	p := build(t, fn)
	m, err := New(p)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m, m.Run(Params{}, nil)
}

func TestIntALUSemantics(t *testing.T) {
	var a, b uint64 = 0xdeadbeefcafe1234, 0x1111111111111111
	tests := []struct {
		op   isa.Opcode
		want uint64
	}{
		{isa.OpAdd, a + b},
		{isa.OpSub, a - b},
		{isa.OpAnd, a & b},
		{isa.OpOr, a | b},
		{isa.OpXor, a ^ b},
		{isa.OpShl, a << (b & 63)},
		{isa.OpShr, a >> (b & 63)},
		{isa.OpRor, a>>(b&63) | a<<(64-b&63)},
		{isa.OpCmpLT, 0}, // a > b unsigned
		{isa.OpCmpEQ, 0},
		{isa.OpMul, a * b},
	}
	for _, tt := range tests {
		t.Run(tt.op.String(), func(t *testing.T) {
			m, _ := exec(t, func(bld *prog.Builder) {
				bld.MovI(1, int64(a))
				bld.MovI(2, int64(b))
				bld.Op3(tt.op, 3, 1, 2)
			})
			if got := m.intRegs[3]; got != tt.want {
				t.Errorf("%s = %#x, want %#x", tt.op, got, tt.want)
			}
		})
	}
}

func TestMulH(t *testing.T) {
	m, _ := exec(t, func(b *prog.Builder) {
		b.MovI(1, -1) // 0xffff...ffff
		b.MovI(2, -1)
		b.Op3(isa.OpMulH, 3, 1, 2)
	})
	if got := m.intRegs[3]; got != 0xfffffffffffffffe {
		t.Errorf("mulh(max,max) = %#x, want 0xfffffffffffffffe", got)
	}
}

func TestMovAndImmediates(t *testing.T) {
	m, _ := exec(t, func(b *prog.Builder) {
		b.MovI(1, -7)
		b.Op2(isa.OpMov, 2, 1)
		b.AddI(3, 2, 10)
	})
	if got := int64(m.intRegs[2]); got != -7 {
		t.Errorf("mov: r2 = %d, want -7", got)
	}
	if got := m.intRegs[3]; got != 3 {
		t.Errorf("addi: r3 = %d, want 3", got)
	}
}

func TestCmpResults(t *testing.T) {
	m, _ := exec(t, func(b *prog.Builder) {
		b.MovI(1, 5)
		b.MovI(2, 9)
		b.Op3(isa.OpCmpLT, 3, 1, 2) // 5 < 9 -> 1
		b.Op3(isa.OpCmpEQ, 4, 1, 1) // 5 == 5 -> 1
		b.Op3(isa.OpCmpEQ, 5, 1, 2) // 5 == 9 -> 0
	})
	if m.intRegs[3] != 1 || m.intRegs[4] != 1 || m.intRegs[5] != 0 {
		t.Errorf("cmp results = %d,%d,%d want 1,1,0",
			m.intRegs[3], m.intRegs[4], m.intRegs[5])
	}
}

func TestFPArithmetic(t *testing.T) {
	m, _ := exec(t, func(b *prog.Builder) {
		b.MovI(1, 3)
		b.MovI(2, 4)
		b.Op2(isa.OpFCvt, 1, 1) // f1 = 3.0
		b.Op2(isa.OpFCvt, 2, 2) // f2 = 4.0
		b.Op3(isa.OpFAdd, 3, 1, 2)
		b.Op3(isa.OpFSub, 4, 1, 2)
		b.Op3(isa.OpFMul, 5, 1, 2)
		b.Op3(isa.OpFDiv, 6, 1, 2)
		b.Op3(isa.OpFMul, 7, 2, 2) // 16
		b.Op2(isa.OpFSqrt, 7, 7)   // 4
		b.Op2(isa.OpFToI, 8, 7)
	})
	checks := []struct {
		reg  uint8
		want float64
	}{
		{3, 7}, {4, -1}, {5, 12}, {6, 0.75}, {7, 4},
	}
	for _, c := range checks {
		if got := math.Float64frombits(m.fpRegs[c.reg]); got != c.want {
			t.Errorf("f%d = %v, want %v", c.reg, got, c.want)
		}
	}
	if m.intRegs[8] != 4 {
		t.Errorf("ftoi: r8 = %d, want 4", m.intRegs[8])
	}
}

func TestFPNaNCanonicalization(t *testing.T) {
	m, _ := exec(t, func(b *prog.Builder) {
		// f0 = 0.0, f1 = 0.0; f2 = 0/0 = NaN
		b.Op3(isa.OpFDiv, 2, 0, 1)
		// NaN + anything = NaN, also canonicalized
		b.Op3(isa.OpFAdd, 3, 2, 0)
	})
	if m.fpRegs[2] != canonicalNaN {
		t.Errorf("0/0 bits = %#x, want canonical NaN %#x", m.fpRegs[2], uint64(canonicalNaN))
	}
	if m.fpRegs[3] != canonicalNaN {
		t.Errorf("NaN+0 bits = %#x, want canonical NaN", m.fpRegs[3])
	}
}

func TestFPDivByZeroIsInf(t *testing.T) {
	m, _ := exec(t, func(b *prog.Builder) {
		b.MovI(1, 1)
		b.Op2(isa.OpFCvt, 1, 1) // f1 = 1.0
		b.Op3(isa.OpFDiv, 2, 1, 0)
	})
	if got := math.Float64frombits(m.fpRegs[2]); !math.IsInf(got, 1) {
		t.Errorf("1/0 = %v, want +Inf", got)
	}
}

func TestFToIClamping(t *testing.T) {
	tests := []struct {
		name string
		f    float64
		want uint64
	}{
		{"nan", math.NaN(), 0},
		{"pos-inf", math.Inf(1), math.MaxInt64},
		{"neg-inf", math.Inf(-1), 1 << 63},
		{"huge", 1e300, math.MaxInt64},
		{"negative", -2.7, uint64(^uint64(1))}, // int64(-2) as bits
		{"normal", 123.9, 123},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := clampToInt64(tt.f); got != tt.want {
				t.Errorf("clampToInt64(%v) = %#x, want %#x", tt.f, got, tt.want)
			}
		})
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	m, _ := exec(t, func(b *prog.Builder) {
		b.MovI(1, 0x123456789abcdef0 & ^int64(0)) // value
		b.MovI(2, 64)                             // address
		b.Store(2, 1, 0)
		b.Load(3, 2, 0)
	})
	if m.intRegs[3] != m.intRegs[1] {
		t.Errorf("load after store = %#x, want %#x", m.intRegs[3], m.intRegs[1])
	}
}

func TestAddressMaskingAndAlignment(t *testing.T) {
	m, _ := exec(t, func(b *prog.Builder) {
		b.MovI(1, 0x55aa)
		// Address far beyond memory size wraps via masking; +3 offset is
		// aligned down to an 8-byte boundary.
		b.MovI(2, int64(prog.MinMemSize)*5+3)
		b.Store(2, 1, 0)
		b.MovI(3, 0) // same location after masking: (5*size+3) & (size-1) &^ 7 = 0
		b.Load(4, 3, 0)
	})
	if m.intRegs[4] != 0x55aa {
		t.Errorf("masked/aligned load = %#x, want 0x55aa", m.intRegs[4])
	}
}

func TestMemoryInitializationDeterministic(t *testing.T) {
	// A fresh load at address 0 must equal the first SplitMix64 output of
	// the memory seed.
	m, _ := exec(t, func(b *prog.Builder) {
		b.Load(1, 0, 0)
	})
	want := rng.NewSplitMix64(12345).Next()
	if m.intRegs[1] != want {
		t.Errorf("mem[0] = %#x, want splitmix64(12345) first output %#x", m.intRegs[1], want)
	}
}

func TestFLoadCanonicalizesNaN(t *testing.T) {
	// Find a memory word that is a NaN pattern and verify the loaded
	// register holds the canonical NaN. We store a NaN pattern manually.
	m, _ := exec(t, func(b *prog.Builder) {
		b.MovI(1, int64(uint64(0x7ff8dead00000001))) // a non-canonical NaN
		b.MovI(2, 128)
		b.Store(2, 1, 0)
		b.FLoad(3, 2, 0)
	})
	if m.fpRegs[3] != canonicalNaN {
		t.Errorf("fload(NaN pattern) = %#x, want canonical NaN", m.fpRegs[3])
	}
}

func TestLoopExecutesExactTripCount(t *testing.T) {
	b := prog.NewBuilder(prog.MinMemSize, 0)
	entry := b.NewBlock()
	body := b.NewBlock()
	exit := b.NewBlock()

	b.SetBlock(entry)
	b.MovI(1, 10) // counter
	b.MovI(2, 0)  // accumulator
	b.MovI(3, 0)  // zero
	b.Jmp(body)

	b.SetBlock(body)
	b.AddI(2, 2, 1)
	b.AddI(1, 1, -1)
	b.Branch(isa.OpBne, 1, 3, body)

	b.SetBlock(exit)
	b.Halt()

	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run(Params{}, nil)
	if m.intRegs[2] != 10 {
		t.Errorf("loop accumulator = %d, want 10", m.intRegs[2])
	}
	if res.Truncated {
		t.Error("bounded loop reported truncated")
	}
	// The branch counts are an observer's to take.
	var c eventCollector
	m.Run(Params{}, &c)
	cond, taken := 0, 0
	for _, ev := range c.events {
		if ev.Op.IsCondBranch() {
			cond++
			if ev.Taken {
				taken++
			}
		}
	}
	if cond != 10 || taken != 9 {
		t.Errorf("observed %d conditional branches, %d taken; want 10, 9", cond, taken)
	}
}

func TestInstructionBudgetTruncates(t *testing.T) {
	b := prog.NewBuilder(prog.MinMemSize, 0)
	spin := b.NewBlock()
	b.Op3(isa.OpAdd, 1, 1, 1)
	b.Jmp(spin)
	b.NewBlock()
	b.Halt() // unreachable, satisfies validation
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, Params{MaxInstructions: 1000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Fatal("infinite loop not truncated")
	}
	if res.Retired != 1000 {
		t.Errorf("Retired = %d, want exactly 1000", res.Retired)
	}
}

func TestSnapshotCadenceAndSize(t *testing.T) {
	// 25 straight-line instructions + halt = 26 retired; interval 10 ->
	// snapshots at 10, 20, plus the final one = 3.
	p := build(t, func(b *prog.Builder) {
		for i := 0; i < 25; i++ {
			b.Op3(isa.OpAdd, 1, 1, 1)
		}
	})
	res, err := Run(p, Params{SnapshotInterval: 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Retired != 26 {
		t.Fatalf("Retired = %d, want 26", res.Retired)
	}
	if res.Snapshots != 3 {
		t.Errorf("Snapshots = %d, want 3", res.Snapshots)
	}
	if len(res.Output) != 3*SnapshotSize {
		t.Errorf("output size = %d, want %d", len(res.Output), 3*SnapshotSize)
	}
}

func TestOutputEncodesFinalRegisters(t *testing.T) {
	m, res := exec(t, func(b *prog.Builder) {
		b.MovI(5, 0x1234)
	})
	last := res.Output[len(res.Output)-SnapshotSize:]
	r5 := binary.LittleEndian.Uint64(last[5*8:])
	if r5 != m.intRegs[5] || r5 != 0x1234 {
		t.Errorf("snapshot r5 = %#x, want 0x1234", r5)
	}
	retired := binary.LittleEndian.Uint64(last[len(last)-8:])
	if retired != res.Retired {
		t.Errorf("snapshot retired counter = %d, want %d", retired, res.Retired)
	}
}

func TestVectorOps(t *testing.T) {
	m, _ := exec(t, func(b *prog.Builder) {
		b.MovI(1, 100)
		b.Op2(isa.OpVBcast, 0, 1) // v0 = [100,101,102,103]
		b.Op3(isa.OpVAdd, 1, 0, 0)
		b.Op3(isa.OpVXor, 2, 1, 0)
		b.Op3(isa.OpVMul, 3, 0, 0)
		b.Op2(isa.OpVRed, 2, 0) // r2 = 100^101^102^103
		b.Op2(isa.OpVRed, 3, 1) // r3 = 200^202^204^206
	})
	if want := uint64(100 ^ 101 ^ 102 ^ 103); m.intRegs[2] != want {
		t.Errorf("vred(v0) = %d, want %d", m.intRegs[2], want)
	}
	if want := uint64(200 ^ 202 ^ 204 ^ 206); m.intRegs[3] != want {
		t.Errorf("vred(vadd) = %d, want %d", m.intRegs[3], want)
	}
}

func TestDeterministicReplay(t *testing.T) {
	p := build(t, func(b *prog.Builder) {
		b.MovI(1, 7)
		for i := 0; i < 50; i++ {
			b.Op3(isa.OpMul, 1, 1, 1)
			b.Op3(isa.OpXor, 2, 1, 2)
			b.Store(2, 1, int64(i*8))
			b.Load(3, 2, 0)
		}
	})
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	first := m.Run(Params{SnapshotInterval: 16}, nil)
	second := m.Run(Params{SnapshotInterval: 16}, nil)
	if !bytes.Equal(first.Output, second.Output) {
		t.Fatal("same machine re-run produced different output")
	}
	viaRun, err := Run(p, Params{SnapshotInterval: 16}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Output, viaRun.Output) {
		t.Fatal("fresh machine produced different output")
	}
}

func TestSingleInstructionChangesOutput(t *testing.T) {
	mk := func(imm int64) *Result {
		p := build(t, func(b *prog.Builder) {
			b.MovI(1, imm)
			for i := 0; i < 20; i++ {
				b.Op3(isa.OpMul, 1, 1, 1)
				b.Op3(isa.OpAdd, 2, 2, 1)
			}
		})
		res, err := Run(p, Params{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if bytes.Equal(mk(7).Output, mk(8).Output) {
		t.Fatal("changing one immediate did not change the output")
	}
}

// TestClassCounts: the events an observer is shown carry each retired
// instruction's class, which is what per-class counts are made of.
func TestClassCounts(t *testing.T) {
	p := build(t, func(b *prog.Builder) {
		b.MovI(1, 1)              // intalu
		b.Op3(isa.OpMul, 2, 1, 1) // intmul
		b.Op3(isa.OpFAdd, 1, 0, 0)
		b.Load(3, 1, 0)
		b.Store(1, 3, 0)
		b.Op3(isa.OpVAdd, 0, 0, 0)
	})
	var c eventCollector
	if _, err := Run(p, Params{}, &c); err != nil {
		t.Fatal(err)
	}
	var counts [isa.NumClasses]uint64
	for _, ev := range c.events {
		counts[ev.Class]++
	}
	want := map[isa.Class]uint64{
		isa.ClassIntALU: 1,
		isa.ClassIntMul: 1,
		isa.ClassFPALU:  1,
		isa.ClassLoad:   1,
		isa.ClassStore:  1,
		isa.ClassVector: 1,
		isa.ClassBranch: 1, // the halt
	}
	for class, n := range want {
		if got := counts[class]; got != n {
			t.Errorf("class %s count = %d, want %d", class, got, n)
		}
	}
}

// eventCollector records retired events for observer tests.
type eventCollector struct {
	events []Event
}

func (c *eventCollector) OnRetire(ev *Event) { c.events = append(c.events, *ev) }

func TestObserverEvents(t *testing.T) {
	p := build(t, func(b *prog.Builder) {
		b.MovI(1, 16)
		b.Load(2, 1, 8) // addr = 24
	})
	var c eventCollector
	if _, err := Run(p, Params{}, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.events) != 3 { // movi, load, halt
		t.Fatalf("got %d events, want 3", len(c.events))
	}
	load := c.events[1]
	if !load.IsMem || load.Addr != 24 {
		t.Errorf("load event addr = %d (isMem=%v), want 24", load.Addr, load.IsMem)
	}
	if load.Class != isa.ClassLoad {
		t.Errorf("load event class = %s", load.Class)
	}
	if c.events[0].StaticID != 0 || load.StaticID != 1 {
		t.Errorf("static IDs = %d,%d want 0,1", c.events[0].StaticID, load.StaticID)
	}
	halt := c.events[2]
	if halt.Op != isa.OpHalt {
		t.Errorf("final event op = %s, want halt", halt.Op)
	}
}

func TestObserverBranchOutcomes(t *testing.T) {
	b := prog.NewBuilder(prog.MinMemSize, 0)
	entry := b.NewBlock()
	exit := b.NewBlock()
	final := b.NewBlock()
	b.SetBlock(entry)
	b.MovI(1, 1)
	b.Branch(isa.OpBeq, 1, 1, exit) // taken
	b.SetBlock(exit)
	b.MovI(2, 0)
	b.Branch(isa.OpBne, 2, 2, entry) // not taken, falls through to final
	b.SetBlock(final)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var c eventCollector
	if _, err := Run(p, Params{}, &c); err != nil {
		t.Fatal(err)
	}
	var branches []Event
	for _, ev := range c.events {
		if ev.Op.IsCondBranch() {
			branches = append(branches, ev)
		}
	}
	if len(branches) != 2 {
		t.Fatalf("got %d branch events, want 2", len(branches))
	}
	if !branches[0].Taken {
		t.Error("first branch should be taken")
	}
	if branches[1].Taken {
		t.Error("second branch should be not-taken")
	}
}

func TestNewRejectsInvalidProgram(t *testing.T) {
	p := &prog.Program{MemSize: 999} // invalid
	if _, err := New(p); err == nil {
		t.Fatal("New accepted an invalid program")
	}
}

func BenchmarkVMThroughput(b *testing.B) {
	bd := prog.NewBuilder(prog.DefaultMemSize, 1)
	entry := bd.NewBlock()
	body := bd.NewBlock()
	exit := bd.NewBlock()
	bd.SetBlock(entry)
	bd.MovI(1, 1_000_00) // 100k iterations
	bd.MovI(3, 0)
	bd.Jmp(body)
	bd.SetBlock(body)
	for i := 0; i < 8; i++ {
		bd.Op3(isa.OpAdd, 4, 4, 1)
		bd.Op3(isa.OpXor, 5, 5, 4)
	}
	bd.AddI(1, 1, -1)
	bd.Branch(isa.OpBne, 1, 3, body)
	bd.SetBlock(exit)
	bd.Halt()
	p := bd.MustBuild()
	m, err := New(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var retired uint64
	for i := 0; i < b.N; i++ {
		res := m.Run(Params{}, nil)
		retired += res.Retired
	}
	b.ReportMetric(float64(retired)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}
