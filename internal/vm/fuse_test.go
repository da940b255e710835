package vm_test

// Tests for the fused stream (fuse.go): which adjacent pairs take one
// slot, which trailing jumps take none, that neither changes what a block
// retires — the dense oracle decides, on every engine — and that every
// pair in the set is worth its dispatch case.

import (
	"slices"
	"testing"

	"hashcore/internal/isa"
	"hashcore/internal/perfprox"
	"hashcore/internal/prog"
	"hashcore/internal/vm"
	"hashcore/internal/workload"
)

// pairCase is an adjacent instruction pair and what the fuser makes of it.
type pairCase struct {
	first, second isa.Opcode
	fused         isa.Opcode // the one slot the pair becomes, or 0
}

func (pc pairCase) String() string { return pc.first.String() + "." + pc.second.String() }

// retiredPairs used to fuse and no longer do: none reached 1 % of the
// dispatches of any profile (DESIGN.md §9 has the table). They stay as
// cases — a pair must execute the same in two slots as it did in one.
var retiredPairs = [][2]isa.Opcode{
	{isa.OpCmpLT, isa.OpBeq}, {isa.OpCmpEQ, isa.OpBeq}, {isa.OpCmpEQ, isa.OpBne},
	{isa.OpAddI, isa.OpBeq}, {isa.OpAddI, isa.OpBne},
	{isa.OpMovI, isa.OpAdd}, {isa.OpMovI, isa.OpSub}, {isa.OpMovI, isa.OpXor}, {isa.OpMovI, isa.OpAnd}, {isa.OpMovI, isa.OpOr},
	{isa.OpAddI, isa.OpLoad}, {isa.OpAddI, isa.OpStore},
	{isa.OpMul, isa.OpAdd}, {isa.OpFMul, isa.OpFAdd},
}

// pairCases lists every fused opcode the isa table defines, every
// non-control opcode followed by a jmp (the jump folds into the block's
// metadata) and the retired pairs.
func pairCases() []pairCase {
	var cases []pairCase
	for op := isa.Opcode(0); op < 255; op++ {
		if first, second, ok := op.FuseParts(); ok {
			cases = append(cases, pairCase{first, second, op})
		}
		if op.Valid() && !op.IsControl() {
			cases = append(cases, pairCase{first: op, second: isa.OpJmp})
		}
	}
	for _, p := range retiredPairs {
		cases = append(cases, pairCase{first: p[0], second: p[1]})
	}
	return cases
}

// Blocks of pairProgram.
const (
	pairEntry = iota
	pairBody
	pairSkipped
	pairTarget
	pairExit
)

// pairProgram builds a program whose pairBody block is the pair — followed
// by a jmp if the pair does not end the block itself — with every control
// transfer aimed at pairTarget, over pairSkipped. Operand values are
// chosen so every unit sees asymmetric inputs (shift counts, FP values and
// addresses all distinct); variant 1 changes two of them so that the
// conditional branches go the other way.
func pairProgram(t *testing.T, pc pairCase, variant int) *prog.Program {
	t.Helper()
	b := prog.NewBuilder(prog.MinMemSize, 99)
	for i := 0; i <= pairExit; i++ {
		b.NewBlock()
	}
	b.SetBlock(pairEntry)
	for r := uint8(0); r < 6; r++ {
		b.MovI(r, int64(r)*0x9e37+3)
	}
	if variant == 1 {
		b.MovI(3, 1)
		b.MovI(4, 2)
	}
	for r := uint8(0); r < 4; r++ {
		b.Op2(isa.OpFCvt, r, r)
		b.Op2(isa.OpVBcast, r, r)
	}
	b.Jmp(pairBody)

	b.SetBlock(pairBody)
	b.Emit(instantiate(pc.first, 2, 3, 4, 40))
	b.Emit(instantiate(pc.second, 1, 2, 3, 48))
	if !pc.second.IsControl() {
		b.Jmp(pairTarget)
	}

	b.SetBlock(pairSkipped)
	b.AddI(5, 5, 77)
	b.SetBlock(pairTarget)
	b.Op3(isa.OpXor, 1, 1, 2)
	b.Jmp(pairExit)
	b.SetBlock(pairExit)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return p
}

// instantiate builds one instruction of opcode op with in-range operands;
// a control instruction targets pairTarget.
func instantiate(op isa.Opcode, dst, a, b uint8, imm int64) prog.Instr {
	ins := prog.Instr{Op: op}
	dstF, aF, bF := op.Operands()
	clamp := func(r uint8, f isa.RegFile) uint8 {
		if f == isa.RegNone {
			return 0
		}
		return r % uint8(f.RegCount())
	}
	ins.Dst = clamp(dst, dstF)
	ins.A = clamp(a, aF)
	ins.B = clamp(b, bF)
	if op.HasImm() {
		ins.Imm = imm
	}
	if op.IsControl() && op != isa.OpHalt {
		ins.Target = pairTarget
	}
	return ins
}

// sweepBoundaries holds the program loaded in m to the dense oracle on
// every engine, under every snapshot interval and every budget that can
// fall inside it — so each instruction, a folded jump included, is in turn
// the one on the boundary.
func sweepBoundaries(t *testing.T, m *vm.Machine, p *prog.Program) {
	t.Helper()
	natural := checkSparseVsDense(t, m, p, vm.Params{}).Retired
	for n := uint64(1); n <= natural+1; n++ {
		checkSparseVsDense(t, m, p, vm.Params{SnapshotInterval: n})
		checkSparseVsDense(t, m, p, vm.Params{MaxInstructions: n})
	}
}

// TestEveryFusedOpcodeSemantics builds, for every pair case, a program
// around that pair, checks the fused stream holds it in the expected form
// — one fused slot, or a lone slot and a successor for x+jmp, or two plain
// slots for a retired pair — and holds every engine to the dense oracle
// across every boundary.
func TestEveryFusedOpcodeSemantics(t *testing.T) {
	for _, pc := range pairCases() {
		t.Run(pc.String(), func(t *testing.T) {
			for variant := 0; variant < 2; variant++ {
				p := pairProgram(t, pc, variant)
				m, err := vm.New(p)
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				body := m.FusedBlocks()[pairBody]
				want := []isa.Opcode{pc.first, pc.second}
				switch {
				case pc.fused != 0:
					want = []isa.Opcode{pc.fused}
				case pc.second == isa.OpJmp:
					want = want[:1]
				}
				if !slices.Equal(body.Ops, want) {
					t.Fatalf("the pair's block dispatches %v, want %v", body.Ops, want)
				}
				wantNext, wantCount := uint32(pairTarget), uint32(3)
				if pc.second.IsCondBranch() {
					wantNext = pairSkipped // falls through when not taken
				}
				if pc.second.IsControl() {
					wantCount = 2
				}
				if body.Next != wantNext || body.Count != wantCount {
					t.Fatalf("the pair's block continues at %d and retires %d, want %d and %d",
						body.Next, body.Count, wantNext, wantCount)
				}
				sweepBoundaries(t, m, p)
			}
		})
	}
}

// TestDecodeFusedPartsRoundTrip expands the fused stream of every pair
// case's program back into architectural instructions — fused slots
// decoded into their halves, the successor turned back into the jmp it was
// folded from — and requires the program's own blocks, instruction for
// instruction. It pins decodeFusedParts and the successor to tryFuse's
// encodings, so the fused disassembly shows exactly what executes.
func TestDecodeFusedPartsRoundTrip(t *testing.T) {
	for _, pc := range pairCases() {
		t.Run(pc.String(), func(t *testing.T) {
			p := pairProgram(t, pc, 0)
			m, err := vm.New(p)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			if pc.fused != 0 && !slices.Contains(m.FusedBlocks()[pairBody].Ops, pc.fused) {
				t.Fatalf("program for %s contains no %s slot; round-trip is vacuous", pc, pc.fused)
			}
			for bi := range p.Blocks {
				got := m.ExpandFused(bi, endsInJmp(p, bi))
				want := slices.Clone(p.Instrs(bi))
				for i := range want {
					want[i].Class = 0 // derived; ExpandFused leaves it out
				}
				if !slices.Equal(got, want) {
					t.Fatalf("block %d expands to\n %+v\nwant\n %+v", bi, got, want)
				}
			}
		})
	}
}

// TestFoldedJumps covers the shapes a folded jump takes that no pair case
// has: a block that is nothing but its jmp, a jmp to the very next block,
// a block that jumps to itself (with and without a body) until the budget
// ends the run, and a conditional terminator, which folds nothing.
func TestFoldedJumps(t *testing.T) {
	b := prog.NewBuilder(prog.MinMemSize, 3)
	const (
		entry = iota
		toNext
		condEnd
		countdown
		loneJmp
		selfLoop
		exit
	)
	for i := 0; i <= exit; i++ {
		b.NewBlock()
	}
	b.SetBlock(entry)
	b.MovI(1, 5)
	b.MovI(2, 0)
	b.Jmp(toNext)
	b.SetBlock(toNext)
	b.AddI(3, 3, 9)
	b.Jmp(condEnd)
	b.SetBlock(condEnd)
	b.AddI(3, 3, 1)
	b.Branch(isa.OpBeq, 1, 2, exit) // r1 != 0 here: falls through
	b.SetBlock(countdown)
	b.AddI(1, 1, -1)
	b.Branch(isa.OpBeq, 1, 2, selfLoop) // four laps through loneJmp, then out
	b.SetBlock(loneJmp)
	b.Jmp(toNext)
	b.SetBlock(selfLoop)
	b.Op3(isa.OpAdd, 4, 4, 3)
	b.Jmp(selfLoop)
	b.SetBlock(exit)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.New(p)
	if err != nil {
		t.Fatal(err)
	}
	blocks := m.FusedBlocks()
	for _, tc := range []struct {
		block int
		ops   []isa.Opcode
		next  uint32
		count uint32
	}{
		{entry, []isa.Opcode{isa.OpMovI, isa.OpMovI}, toNext, 3},
		{loneJmp, nil, toNext, 1},
		{toNext, []isa.Opcode{isa.OpAddI}, condEnd, 2},
		{condEnd, []isa.Opcode{isa.OpAddI, isa.OpBeq}, countdown, 2},
		{selfLoop, []isa.Opcode{isa.OpAdd}, selfLoop, 2},
	} {
		got := blocks[tc.block]
		if !slices.Equal(got.Ops, tc.ops) || got.Next != tc.next || got.Count != tc.count {
			t.Errorf("block %d: dispatches %v, continues at %d, retires %d; want %v, %d, %d",
				tc.block, got.Ops, got.Next, got.Count, tc.ops, tc.next, tc.count)
		}
	}
	// The run ends in selfLoop, so only a budget stops it: every budget
	// from 1 past the point where the loop is entered, alone and with
	// snapshot intervals that put the boundary on each instruction in turn.
	for budget := uint64(1); budget <= 60; budget++ {
		if res := checkSparseVsDense(t, m, p, vm.Params{MaxInstructions: budget}); !res.Truncated {
			t.Fatalf("budget %d did not truncate a program that cannot halt", budget)
		}
		for _, iv := range []uint64{1, 2, 3, 5, budget} {
			checkSparseVsDense(t, m, p, vm.Params{SnapshotInterval: iv, MaxInstructions: budget})
		}
	}

	// And a block that is only a jump to itself.
	b = prog.NewBuilder(prog.MinMemSize, 3)
	b.NewBlock()
	b.MovI(1, 1)
	spin := b.NewBlock()
	b.Jmp(spin)
	b.NewBlock()
	b.Halt()
	if p, err = b.Build(); err != nil {
		t.Fatal(err)
	}
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	if got := m.FusedBlocks()[spin]; len(got.Ops) != 0 || got.Next != uint32(spin) || got.Count != 1 {
		t.Errorf("jmp-to-self block: dispatches %v, continues at %d, retires %d", got.Ops, got.Next, got.Count)
	}
	for budget := uint64(1); budget <= 12; budget++ {
		checkSparseVsDense(t, m, p, vm.Params{MaxInstructions: budget})
		checkSparseVsDense(t, m, p, vm.Params{SnapshotInterval: 3, MaxInstructions: budget})
	}
}

// TestFuseRespectsBlockBoundaries asserts a fusible-looking pair split
// across two blocks is NOT fused (a branch target may land between them).
func TestFuseRespectsBlockBoundaries(t *testing.T) {
	b := prog.NewBuilder(prog.MinMemSize, 1)
	first := b.NewBlock()
	second := b.NewBlock()
	b.SetBlock(first)
	b.Op3(isa.OpAdd, 1, 2, 3) // falls through
	b.SetBlock(second)
	b.Op3(isa.OpAdd, 2, 3, 4)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.New(p)
	if err != nil {
		t.Fatal(err)
	}
	for bi, fb := range m.FusedBlocks() {
		if slices.Contains(fb.Ops, isa.OpFuseAddAdd) {
			t.Fatalf("add+add fused across a block boundary: block %d dispatches %v", bi, fb.Ops)
		}
	}
}

// archLength is the number of architectural instructions the fused form of
// a block stands for: two per fused slot, one per plain slot, and one for
// a jump folded into the successor.
func archLength(fb vm.FusedBlock, foldedJmp bool) uint32 {
	n := uint32(0)
	for _, op := range fb.Ops {
		if op.IsFused() {
			n++
		}
		n++
	}
	if foldedJmp {
		n++
	}
	return n
}

// endsInJmp reports whether block bi of p ends in an unconditional jump.
func endsInJmp(p *prog.Program, bi int) bool {
	code := p.Instrs(bi)
	return len(code) > 0 && code[len(code)-1].Op == isa.OpJmp
}

// TestFusedBlockArchLengthPreserved asserts fusion never changes a block's
// architectural instruction count — fused slots retire two, a folded jump
// still retires — on a hand-built block of each kind and on a generated
// widget of every family.
func TestFusedBlockArchLengthPreserved(t *testing.T) {
	b := prog.NewBuilder(prog.MinMemSize, 5)
	b.NewBlock()
	b.Op3(isa.OpAdd, 1, 2, 3)
	b.Op3(isa.OpAdd, 2, 3, 4)
	b.Op3(isa.OpXor, 3, 4, 0)
	b.MovI(4, 77)
	b.Op3(isa.OpSub, 1, 1, 2)
	b.Jmp(2)
	b.NewBlock()
	b.Jmp(2)
	b.NewBlock()
	b.Op3(isa.OpRor, 1, 2, 3)
	b.Op3(isa.OpAnd, 2, 1, 4)
	b.Op3(isa.OpCmpLT, 3, 2, 1)
	b.Branch(isa.OpBne, 3, 0, 1)
	b.NewBlock()
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	programs := []*prog.Program{p}
	for _, name := range sparseProfiles {
		w, err := fullProfileGenerator(t, name).Generate(seedFromWords(1, 0xa7c4))
		if err != nil {
			t.Fatal(err)
		}
		programs = append(programs, w)
	}
	var m vm.Machine
	for pi, p := range programs {
		if err := m.Load(p); err != nil {
			t.Fatal(err)
		}
		folded := 0
		for bi, fb := range m.FusedBlocks() {
			if arch := archLength(fb, endsInJmp(p, bi)); arch != fb.Count || fb.Count != p.Blocks[bi].Len {
				t.Errorf("program %d block %d: fused stream stands for %d instructions, meta says %d, the block has %d",
					pi, bi, arch, fb.Count, p.Blocks[bi].Len)
			}
			if endsInJmp(p, bi) {
				folded++
			}
		}
		if folded == 0 {
			t.Errorf("program %d has no jump to fold", pi)
		}
	}
}

// blockEntries is an observer that counts how often each block of a
// program is entered: control enters a block only at its start, so an
// entry is the retirement of a block's first instruction.
type blockEntries struct {
	blockAt []int32 // StaticID → the non-empty block starting there, or -1
	entries []uint64
}

func newBlockEntries(p *prog.Program) *blockEntries {
	o := &blockEntries{blockAt: make([]int32, len(p.Code)), entries: make([]uint64, len(p.Blocks))}
	for i := range o.blockAt {
		o.blockAt[i] = -1
	}
	for bi, b := range p.Blocks {
		if b.Len > 0 {
			o.blockAt[b.Start] = int32(bi)
		}
	}
	return o
}

func (o *blockEntries) OnRetire(ev *vm.Event) {
	if bi := o.blockAt[ev.StaticID]; bi >= 0 {
		o.entries[bi]++
	}
}

// dispatchShares runs 16 widgets of a profile and returns, per opcode, its
// share of all fast-loop dispatches: every execution of a block dispatches
// each of its slots once. The executions are counted by an observer, on
// the reference step, which enters the same blocks as the fast loop; the
// loop would hand the few that straddle a snapshot to the step.
func dispatchShares(t *testing.T, profile string) map[isa.Opcode]float64 {
	t.Helper()
	w, err := workload.ByName(profile)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := perfprox.NewGenerator(w.Profile, perfprox.Params{})
	if err != nil {
		t.Fatal(err)
	}
	var m vm.Machine
	var res vm.Result
	counts := map[isa.Opcode]uint64{}
	total := uint64(0)
	for i := uint64(0); i < 16; i++ {
		p, err := gen.Generate(seedFromWords(i, 0xce7505))
		if err != nil {
			t.Fatal(err)
		}
		m.LoadTrusted(p)
		obs := newBlockEntries(p)
		m.RunInto(vm.Params{}, obs, &res)
		for bi, fb := range m.FusedBlocks() {
			for _, op := range fb.Ops {
				counts[op] += obs.entries[bi]
			}
			total += obs.entries[bi] * uint64(len(fb.Ops))
		}
	}
	shares := make(map[isa.Opcode]float64, len(counts))
	for op, n := range counts {
		shares[op] = float64(n) / float64(total)
	}
	return shares
}

// TestFusedSetEarnsItsKeep holds the superinstruction set to the rule it
// was cut down by: every fused opcode in the isa table is at least 1 % of
// the interpreter's dynamic dispatches on at least one profile, or it is a
// dispatch case, an encoding and a test row that buy nothing. The nine
// {add,sub,xor}² opcodes are one entry — one encoding, three lines a
// member — and are measured together. A pair added to the table without
// the measurement to back it fails here.
func TestFusedSetEarnsItsKeep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 96 full-size widgets")
	}
	entry := func(op isa.Opcode) string {
		first, second, _ := op.FuseParts()
		filler := func(o isa.Opcode) bool { return o == isa.OpAdd || o == isa.OpSub || o == isa.OpXor }
		if filler(first) && filler(second) {
			return "{add,sub,xor}²"
		}
		return op.String()
	}
	best := map[string]float64{}
	where := map[string]string{}
	for op := isa.Opcode(0); op < 255; op++ {
		if op.IsFused() {
			best[entry(op)] = 0
		}
	}
	for _, profile := range workload.Names() {
		sum := map[string]float64{}
		for op, share := range dispatchShares(t, profile) {
			if op.IsFused() {
				sum[entry(op)] += share
			}
		}
		for e, share := range sum {
			if share > best[e] {
				best[e], where[e] = share, profile
			}
		}
	}
	for e, share := range best {
		t.Logf("%-16s %5.2f %% of dispatches at best (%s)", e, 100*share, where[e])
		if share < 0.01 {
			t.Errorf("%s: %.2f %% of dynamic dispatches at best, on no profile the 1 %% that keeps a fused opcode", e, 100*share)
		}
	}
}
