package vm_test

// Tests for the sparse scratch memory (vm.Machine documents the model):
// the overlay against the dense reference on generated widgets (fuzzed and
// as a fixed sweep), the native load/store templates case by case, and the
// hazards of reusing one Machine across images.

import (
	"fmt"
	"math"
	"testing"

	"hashcore/internal/asm"
	"hashcore/internal/isa"
	"hashcore/internal/perfprox"
	"hashcore/internal/prog"
	"hashcore/internal/vm"
	"hashcore/internal/workload"
)

// sparseProfiles are the workload families the differential tests draw
// widgets from: the default, the store- and pointer-chase-heavy one, and a
// floating-point one (fload/fstore).
var sparseProfiles = []string{"leela", "mcf", "lbm"}

// FuzzSparseVsDenseMemory generates a widget from fuzzed seed material on
// a fuzzed profile and runs it under fuzzed budget and snapshot parameters
// on the dense reference and on every overlay engine; all results must be
// bit-identical. One Machine serves every execution of the fuzz process,
// so each input also runs on whatever table and written map the previous
// ones left behind. (In the committed corpus, seed-10 is an mcf widget
// with a snapshot interval past its budget: no snapshot ends its native
// segments, the written-word table's headroom does.)
func FuzzSparseVsDenseMemory(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint8(0), uint16(0), uint8(0))
	f.Add(uint64(3), uint64(4), uint8(1), uint16(1), uint8(1))
	f.Add(uint64(0xdead), uint64(0xbeef), uint8(2), uint16(2048), uint8(3))
	f.Add(uint64(42), uint64(1<<40), uint8(1), uint16(13), uint8(7))

	gens := make([]*perfprox.Generator, len(sparseProfiles))
	for i, name := range sparseProfiles {
		gens[i] = fullProfileGenerator(f, name)
	}
	m := &vm.Machine{}
	f.Fuzz(func(t *testing.T, seedLo, seedHi uint64, profileSel uint8, snapRaw uint16, budgetSel uint8) {
		p, err := gens[int(profileSel)%len(gens)].Generate(seedFromWords(seedLo, seedHi))
		if err != nil {
			t.Skip() // infeasible parameter corner, not an execution bug
		}
		if err := m.Load(p); err != nil {
			t.Fatalf("generated program failed validation: %v", err)
		}
		params := vm.Params{SnapshotInterval: uint64(snapRaw)}
		natural := checkSparseVsDense(t, m, p, params).Retired
		params.MaxInstructions = boundaryBudget(budgetSel, natural)
		checkSparseVsDense(t, m, p, params)
	})
}

// TestSparseVsDenseOnProfiles is the fuzz target's fixed sweep, so a plain
// `go test` compares the overlay with the dense reference on every
// profile family and boundary kind. Each widget is swept twice: as the
// generator built it, and as the assembler rebuilds it from its
// disassembly — the textual pipeline, held to the dense reference's run
// of the original, not merely to the direct path.
func TestSparseVsDenseOnProfiles(t *testing.T) {
	direct, viaText := &vm.Machine{}, &vm.Machine{}
	for _, name := range sparseProfiles {
		gen := fullProfileGenerator(t, name)
		for i := uint64(0); i < 3; i++ {
			p, err := gen.Generate(seedFromWords(i, 0x5ba5e))
			if err != nil {
				t.Fatal(err)
			}
			if err := direct.Load(p); err != nil {
				t.Fatal(err)
			}
			q, err := asm.Assemble(asm.Disassemble(p))
			if err != nil {
				t.Fatal(err)
			}
			if err := viaText.Load(q); err != nil {
				t.Fatal(err)
			}
			for _, m := range []*vm.Machine{direct, viaText} {
				natural := checkSparseVsDense(t, m, p, vm.Params{}).Retired
				for sel := uint8(1); sel < 8; sel++ {
					checkSparseVsDense(t, m, p, vm.Params{MaxInstructions: boundaryBudget(sel, natural)})
				}
				for _, iv := range []uint64{1, 2, 3, 7, 64, natural - 1, natural} {
					checkSparseVsDense(t, m, p, vm.Params{SnapshotInterval: iv})
					checkSparseVsDense(t, m, p, vm.Params{SnapshotInterval: iv, MaxInstructions: natural - 1})
				}
			}
		}
	}
}

// TestLoadAdoptsProgram: there is one load path, whoever built the
// program. An assembled widget loads into a warm Machine without
// allocating, validation included — the machine adopts it, it has no
// storage of its own to copy it into — and runs on every engine exactly as
// the dense reference runs the generator's original.
func TestLoadAdoptsProgram(t *testing.T) {
	for _, name := range sparseProfiles {
		p, err := fullProfileGenerator(t, name).Generate(seedFromWords(7, 0x10ad))
		if err != nil {
			t.Fatal(err)
		}
		q, err := asm.Assemble(asm.Disassemble(p))
		if err != nil {
			t.Fatal(err)
		}
		m := &vm.Machine{}
		if err := m.Load(q); err != nil {
			t.Fatal(err)
		}
		checkSparseVsDense(t, m, p, vm.Params{}) // warms every engine
		if allocs := testing.AllocsPerRun(10, func() {
			if err := m.Load(q); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: Load of an assembled program allocates %.0f times on a warm machine", name, allocs)
		}
		if arch, _ := m.CodeSize(); arch != len(q.Code) {
			t.Errorf("%s: machine holds %d instructions, the program has %d", name, arch, len(q.Code))
		}
		checkSparseVsDense(t, m, p, vm.Params{SnapshotInterval: 7})
	}
}

// Registers of the template programs. The native compiler pins the eight
// most-referenced integer registers of a program to hardware registers,
// ties going to the lower index (jit's TestAllocRegsPinsMostUsed holds it
// to that); templateProgram's preamble references r0..r7 far more often
// than anything else touches r8..r15, so the first set is pinned and the
// second lives in the frame.
const (
	regPinnedAddr = 1
	regPinnedData = 2
	regFrameAddr  = 9
	regFrameData  = 10
	regFold       = 6 // every loaded value is folded in here
	regOther      = 3 // pinned: the value of the set-up stores
	fregData      = 3
)

type templateCase struct {
	op         isa.Opcode
	addr, data uint8
}

func (tc templateCase) String() string {
	kind := func(r uint8) string {
		if r < 8 {
			return "pinned"
		}
		return "frame"
	}
	data := kind(tc.data) + " data"
	switch {
	case tc.op == isa.OpFLoad || tc.op == isa.OpFStore:
		data = "fp data"
	case tc.data == tc.addr:
		data = "data is the address register"
	}
	return fmt.Sprintf("%v/%s address/%s", tc.op, kind(tc.addr), data)
}

// templateProgram builds a program around one memory instruction shape.
// The instruction under test meets a word no store has touched, a word
// written earlier in its own block and a word written two blocks before;
// a short block in between and a closing block that reads everything back
// give a snapshot or budget boundary somewhere to fall, so that across a
// sweep of every interval and budget each of those blocks runs on the
// interpreter slow path in some run and natively in the others.
func templateProgram(t *testing.T, tc templateCase) *prog.Program {
	t.Helper()
	// An unaligned base far beyond the image: every access wraps and aligns.
	const base = 0x1234567
	b := prog.NewBuilder(prog.MinMemSize, 0xfeed)
	b.NewBlock()
	for r := uint8(0); r < 8; r++ {
		b.MovI(r, int64(r)*0x1111+7)
		for i := 0; i < 30; i++ { // 61 references each; r9 gets under 30
			b.Op2(isa.OpMov, r, r)
		}
	}
	b.MovI(regFrameData, 0x7a7a)
	b.Op2(isa.OpFCvt, fregData, regOther)
	setAddr := func() { b.MovI(tc.addr, base) }
	fold := func() { b.Op3(isa.OpXor, regFold, regFold, tc.data) }
	if tc.op == isa.OpFLoad || tc.op == isa.OpFStore {
		fold = func() {
			b.Op2(isa.OpFToI, regFrameData, fregData)
			b.Op3(isa.OpXor, regFold, regFold, regFrameData)
		}
	}
	// under emits the instruction under test at displacement disp, then
	// folds what it loaded (or stored) into regFold and restores the
	// address register, which a load into it has just replaced.
	under := func(disp int64) {
		switch tc.op {
		case isa.OpLoad:
			b.Load(tc.data, tc.addr, disp)
		case isa.OpFLoad:
			b.FLoad(fregData, tc.addr, disp)
		case isa.OpStore:
			b.Store(tc.addr, tc.data, disp)
		case isa.OpFStore:
			b.FStore(tc.addr, fregData, disp)
		}
		fold()
		setAddr()
	}

	b.NewBlock() // set-up stores: "written in an earlier block"
	setAddr()
	b.Store(tc.addr, regOther, 16)
	b.FStore(tc.addr, fregData, 24)

	b.NewBlock() // room for a boundary between the set-up and the test
	b.AddI(4, 4, 1)
	b.AddI(5, 5, 3)

	b.NewBlock()
	under(16)  // written in an earlier block
	under(24)  // the same, by an fstore
	under(40)  // never written (a store under test now writes it)
	under(408) // never written, in the next word of the written map
	b.Store(tc.addr, regOther, 48)
	under(48) // written earlier in this block
	under(56) // its unwritten neighbour

	b.NewBlock() // read everything back after whatever boundary came
	for _, disp := range []int64{16, 24, 40, 48, 56, 408} {
		b.Load(7, tc.addr, disp)
		b.Op3(isa.OpXor, regFold, regFold, 7)
		b.FLoad(5, tc.addr, disp)
	}
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestMemoryTemplates drives every native load/store template — opcode ×
// where the data register lives × where the address register lives —
// through every snapshot interval and every budget from 1 to past the
// program's end, which lands a boundary on, just before and just after
// each memory instruction. The dense reference decides; the interpreter is
// held to it too. A scratch register clobbered by the shared routines, or
// a written map the two engines do not share across a bounce, shows as a
// differing snapshot.
func TestMemoryTemplates(t *testing.T) {
	var cases []templateCase
	for _, addr := range []uint8{regPinnedAddr, regFrameAddr} {
		for _, op := range []isa.Opcode{isa.OpLoad, isa.OpStore} {
			for _, data := range []uint8{regPinnedData, regFrameData, addr} {
				cases = append(cases, templateCase{op: op, addr: addr, data: data})
			}
		}
		for _, op := range []isa.Opcode{isa.OpFLoad, isa.OpFStore} {
			cases = append(cases, templateCase{op: op, addr: addr})
		}
	}
	for _, tc := range cases {
		t.Run(tc.String(), func(t *testing.T) {
			p := templateProgram(t, tc)
			m, err := vm.New(p)
			if err != nil {
				t.Fatal(err)
			}
			natural := checkSparseVsDense(t, m, p, vm.Params{}).Retired
			for n := uint64(1); n <= natural+1; n++ {
				checkSparseVsDense(t, m, p, vm.Params{SnapshotInterval: n})
				checkSparseVsDense(t, m, p, vm.Params{MaxInstructions: n})
				checkSparseVsDense(t, m, p, vm.Params{SnapshotInterval: n, MaxInstructions: natural - n/2})
			}
		})
	}
}

// scribble builds a program over a size-byte image that stores to count
// words spread across the whole image, loads them and their neighbours
// back, and halts.
func scribble(t *testing.T, size int, memSeed uint64, count int) *prog.Program {
	t.Helper()
	b := prog.NewBuilder(size, memSeed)
	b.NewBlock()
	b.MovI(0, int64(count))
	b.MovI(1, 0)
	b.MovI(2, 0)
	b.MovI(3, int64(memSeed)|1)
	body := b.NewBlock()
	b.Store(1, 3, 0)
	b.Load(4, 1, 0)
	b.Load(5, 1, 8)
	b.Op3(isa.OpXor, 6, 6, 4)
	b.Op3(isa.OpAdd, 6, 6, 5)
	b.AddI(1, 1, int64(size/count)+8)
	b.AddI(3, 3, 2)
	b.AddI(0, 0, -1)
	b.Branch(isa.OpBne, 0, 2, body)
	b.NewBlock()
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestMachineReuseAcrossImageSizes: one Machine reloaded from a larger
// image to a smaller one and back, and from one seed to another over the
// same size, must never see a written bit or a table word a previous run
// left: every run equals the dense reference, which starts from nothing.
// PrepareMemory calls — matching, mismatching, absent — are interleaved
// and must change no result.
func TestMachineReuseAcrossImageSizes(t *testing.T) {
	const big, small = 256 << 10, prog.MinMemSize
	steps := []struct {
		size int
		seed uint64
	}{
		{big, 1}, {small, 1}, {big, 1}, {big, 2}, {small, 2}, {small, 3}, {big, 3}, {2 * big, 4}, {small, 4}, {big, 1},
	}
	m := &vm.Machine{}
	for i, st := range steps {
		p := scribble(t, st.size, st.seed, 300)
		switch i % 3 {
		case 1:
			m.PrepareMemory(st.size, st.seed)
		case 2:
			m.PrepareMemory(steps[i-1].size, st.seed+9)
		}
		if err := m.Load(p); err != nil {
			t.Fatal(err)
		}
		checkSparseVsDense(t, m, p, vm.Params{})
		checkSparseVsDense(t, m, p, vm.Params{SnapshotInterval: 5, MaxInstructions: 1000})
	}
}

// runEngine runs the program loaded in m on engine — a backend, or the
// reference step alone when engine is "reference step" — into res.
func runEngine(m *vm.Machine, engine string, params vm.Params, res *vm.Result) {
	if engine == "reference step" {
		m.RunInto(params, &nullObserver{}, res)
		return
	}
	be, _ := vm.ParseBackend(engine)
	m.SetBackend(be)
	m.RunInto(params, nil, res)
}

// engineNames are the engines runEngine knows on this platform.
func engineNames() []string {
	names := []string{"reference step"}
	for _, be := range sparseEngines() {
		names = append(names, be.String())
	}
	return names
}

// TestTableGrowsAtBoundaries runs an mcf widget on every engine from a
// 16-slot written-word table that keeps only 4 words of headroom, with
// one snapshot interval as long as the budget: no snapshot ends a native
// segment, the table's headroom does — over and over, the table growing
// at those bounces and at the reference step's inserts between them. The
// dense reference decides.
func TestTableGrowsAtBoundaries(t *testing.T) {
	p, err := fullProfileGenerator(t, "mcf").Generate(seedFromWords(25, 0x7ab1e))
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.New(p)
	if err != nil {
		t.Fatal(err)
	}
	natural := runDense(p, vm.Params{}).Retired
	for _, params := range []vm.Params{
		{SnapshotInterval: natural, MaxInstructions: natural},
		{SnapshotInterval: natural / 2, MaxInstructions: natural / 2},
	} {
		want := runDense(p, params)
		for _, engine := range engineNames() {
			vm.ShrinkTable(t, m, 16, 4)
			var got vm.Result
			runEngine(m, engine, params, &got)
			if field, ok := sameResult(&got, want); !ok {
				t.Fatalf("params %+v: %s from a 16-slot table and the dense reference differ in %s", params, engine, field)
			}
			st := m.LastRunStats()
			if st.WordsWritten < 64 || st.TableSlots < int(2*st.WordsWritten) {
				t.Fatalf("params %+v on %s: %d words written into a table of %d slots, want many words and at most half the slots",
					params, engine, st.WordsWritten, st.TableSlots)
			}
			if engine == "native" && st.SlowBounces < 8 {
				t.Errorf("params %+v: %d slow bounces, want the table's headroom to end many native segments", params, st.SlowBounces)
			}
		}
	}
}

// TestTableEpochWrap runs a widget at the last table epoch, then again:
// the reset wraps the epoch, which must clear the slots — a key of the
// last epoch is above every later one and would look live for good — and
// both runs must equal the dense reference on every engine.
func TestTableEpochWrap(t *testing.T) {
	first, second := scribble(t, 1<<16, 7, 300), scribble(t, 1<<16, 8, 290)
	m := &vm.Machine{}
	for _, engine := range engineNames() {
		if err := m.Load(first); err != nil {
			t.Fatal(err)
		}
		m.SetTableEpoch(math.MaxUint32 - 1)
		var got vm.Result
		runEngine(m, engine, vm.Params{}, &got)
		if field, ok := sameResult(&got, runDense(first, vm.Params{})); !ok {
			t.Fatalf("%s at the last epoch: differs from the dense reference in %s", engine, field)
		}
		if e := m.MaxKeyEpoch(); m.TableEpoch() != math.MaxUint32 || e != math.MaxUint32 {
			t.Fatalf("%s: run at epoch %d left keys of epoch %d, want %d", engine, m.TableEpoch(), e, uint32(math.MaxUint32))
		}
		if err := m.Load(second); err != nil {
			t.Fatal(err)
		}
		runEngine(m, engine, vm.Params{}, &got)
		if field, ok := sameResult(&got, runDense(second, vm.Params{})); !ok {
			t.Fatalf("%s after the epoch wrapped: differs from the dense reference in %s", engine, field)
		}
		if e := m.MaxKeyEpoch(); m.TableEpoch() != 1 || e != 1 {
			t.Fatalf("%s: the run after the wrap is epoch %d and the table holds keys of epoch %d, want 1 and 1", engine, m.TableEpoch(), e)
		}
	}
}

// TestMachineFootprint: what a Machine keeps for its scratch memory after
// 50 hashes' worth of mcf widgets — a 64 MiB image each — is the written
// map and the table, not an image-sized arena.
func TestMachineFootprint(t *testing.T) {
	w, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := perfprox.NewGenerator(w.Profile, perfprox.Params{})
	if err != nil {
		t.Fatal(err)
	}
	var (
		m   vm.Machine
		res vm.Result
	)
	for i := uint64(0); i < 50; i++ {
		p, err := gen.Generate(seedFromWords(i, 0xf007))
		if err != nil {
			t.Fatal(err)
		}
		m.LoadTrusted(p)
		m.RunInto(vm.Params{}, nil, &res)
	}
	if b := m.ScratchBytes(); b >= 4<<20 {
		t.Errorf("after 50 mcf runs the machine retains %d bytes of scratch memory, want under 4 MiB", b)
	} else {
		t.Logf("%d bytes of scratch memory (%d table slots)", b, m.LastRunStats().TableSlots)
	}
}

// TestFallbackSeesCleanMemory: when a program cannot be compiled — more
// blocks than the compiler accepts — a native-backed Machine runs it on
// the interpreter. That run must start from a clean map although the
// previous run's native code marked it, and must see the stores it makes
// itself.
func TestFallbackSeesCleanMemory(t *testing.T) {
	requireNative(t)
	m := &vm.Machine{}
	m.SetBackend(vm.BackendNative)
	first := scribble(t, prog.MinMemSize, 7, 300)
	if err := m.Load(first); err != nil {
		t.Fatal(err)
	}
	var res vm.Result
	m.RunInto(vm.Params{}, nil, &res)
	if st := m.LastRunStats(); st.Backend != vm.BackendNative {
		t.Fatalf("first run on %v: %v", st.Backend, st.FallbackErr)
	}

	const tooManyBlocks = 1<<18 + 1 // jit.maxBlocks + 1, well inside prog.MaxBlocks
	b := prog.NewBuilder(prog.MinMemSize, 7)
	b.NewBlock()
	b.MovI(1, 0)
	for disp := int64(0); disp < 4096; disp += 104 { // words the first run wrote, and others
		b.Load(4, 1, disp)
		b.Op3(isa.OpXor, 6, 6, 4)
	}
	b.Store(1, 6, 64)
	b.Load(5, 1, 64)
	for i := 0; i < tooManyBlocks-2; i++ {
		b.NewBlock() // empty: falls through
	}
	b.NewBlock()
	b.Halt()
	second, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(second); err != nil {
		t.Fatal(err)
	}
	m.RunInto(vm.Params{}, nil, &res)
	if st := m.LastRunStats(); st.Backend != vm.BackendInterp || st.FallbackErr == nil {
		t.Fatalf("oversized program ran on %v (fallback error %v), want an interpreter fallback", st.Backend, st.FallbackErr)
	}
	if field, ok := sameResult(&res, runDense(second, vm.Params{})); !ok {
		t.Fatalf("fallback run and dense reference differ in %s", field)
	}
}
