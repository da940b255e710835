package isa

import "testing"

// archOpcodes lists the architectural opcodes: the rows of opTable.
func archOpcodes(t *testing.T) []Opcode {
	t.Helper()
	var ops []Opcode
	for i, r := range opTable {
		if r.meta != 0 {
			ops = append(ops, Opcode(i))
		}
	}
	if len(ops) != 38 {
		t.Fatalf("opTable defines %d opcodes, want the ISA's 38", len(ops))
	}
	return ops
}

func TestEveryOpcodeHasClassAndName(t *testing.T) {
	for _, op := range archOpcodes(t) {
		if !op.Valid() {
			t.Errorf("opcode %d has a table row but is not valid", op)
		}
		if opTable[op].name == "" {
			t.Errorf("opcode %d has no mnemonic", op)
		}
		if c := op.ClassOf(); c < ClassIntALU || c >= numClasses {
			t.Errorf("opcode %s has invalid class %d", op, c)
		}
	}
}

// TestMnemonicRoundTrip: the printed mnemonic names exactly one opcode, so
// disassembled text can be read back to the program it came from, and no
// byte that is not an opcode prints as one.
func TestMnemonicRoundTrip(t *testing.T) {
	named := map[string]Opcode{}
	for _, op := range archOpcodes(t) {
		name := op.String()
		if prev, dup := named[name]; dup {
			t.Errorf("opcodes %d and %d share the mnemonic %q", prev, op, name)
		}
		named[name] = op
	}
	for _, op := range archOpcodes(t) {
		if got := named[op.String()]; got != op {
			t.Errorf("mnemonic %q names opcode %d, want %d", op.String(), got, op)
		}
	}
	for b := 0; b < 256; b++ {
		op := Opcode(b)
		if op.Valid() || op.IsFused() {
			continue
		}
		if got, ok := named[op.String()]; ok {
			t.Errorf("non-opcode byte %d prints as the mnemonic of opcode %d", b, got)
		}
	}
}

func TestInvalidOpcode(t *testing.T) {
	if OpInvalid.Valid() {
		t.Error("OpInvalid reported valid")
	}
	if Opcode(200).Valid() {
		t.Error("undefined opcode 200 reported valid")
	}
	if got := Opcode(200).String(); got != "op(200)" {
		t.Errorf("String of invalid opcode = %q", got)
	}
	if got := Class(99).String(); got != "class(99)" {
		t.Errorf("String of invalid class = %q", got)
	}
}

func TestControlClassification(t *testing.T) {
	controls := []Opcode{OpBeq, OpBne, OpBlt, OpBge, OpJmp, OpHalt}
	for _, op := range controls {
		if !op.IsControl() {
			t.Errorf("%s should be control", op)
		}
		if op.ClassOf() != ClassBranch {
			t.Errorf("%s class = %s, want branch", op, op.ClassOf())
		}
	}
	condBranches := []Opcode{OpBeq, OpBne, OpBlt, OpBge}
	for _, op := range condBranches {
		if !op.IsCondBranch() {
			t.Errorf("%s should be a conditional branch", op)
		}
	}
	if OpJmp.IsCondBranch() || OpHalt.IsCondBranch() {
		t.Error("jmp/halt misclassified as conditional branches")
	}
	if OpAdd.IsControl() {
		t.Error("add misclassified as control")
	}
}

func TestOperandsConsistentWithClass(t *testing.T) {
	for _, op := range archOpcodes(t) {
		dst, a, b := op.Operands()
		// Every non-control, non-store opcode must write a register so
		// that full execution is observable in snapshots (the paper's
		// "every instruction modifies the registers" requirement).
		writes := dst != RegNone
		isStore := op == OpStore || op == OpFStore
		if !op.IsControl() && !isStore && !writes {
			t.Errorf("%s writes no register", op)
		}
		// Register-file sanity: operands only come from defined files.
		for _, f := range []RegFile{dst, a, b} {
			switch f {
			case RegNone, RegInt, RegFP, RegVec:
			default:
				t.Errorf("%s has undefined operand file %d", op, f)
			}
		}
	}
}

func TestHasImmMatchesDocumentedSet(t *testing.T) {
	want := map[Opcode]bool{
		OpMovI: true, OpAddI: true, OpLoad: true, OpFLoad: true,
		OpStore: true, OpFStore: true,
	}
	for _, op := range archOpcodes(t) {
		if got := op.HasImm(); got != want[op] {
			t.Errorf("%s HasImm = %v, want %v", op, got, want[op])
		}
	}
}

func TestRegFileProperties(t *testing.T) {
	tests := []struct {
		f      RegFile
		count  int
		prefix string
	}{
		{RegInt, 16, "r"},
		{RegFP, 16, "f"},
		{RegVec, 8, "v"},
		{RegNone, 0, "?"},
	}
	for _, tt := range tests {
		if got := tt.f.RegCount(); got != tt.count {
			t.Errorf("RegCount(%d) = %d, want %d", tt.f, got, tt.count)
		}
		if got := tt.f.Prefix(); got != tt.prefix {
			t.Errorf("Prefix(%d) = %q, want %q", tt.f, got, tt.prefix)
		}
	}
}

func TestClassesListComplete(t *testing.T) {
	seen := map[Class]bool{}
	for _, c := range Classes {
		seen[c] = true
	}
	for _, op := range archOpcodes(t) {
		if !seen[op.ClassOf()] {
			t.Errorf("class %s of %s missing from Classes", op.ClassOf(), op)
		}
	}
	if len(Classes) != int(numClasses)-1 {
		t.Errorf("Classes has %d entries, want %d", len(Classes), int(numClasses)-1)
	}
}

func TestClassStrings(t *testing.T) {
	want := map[Class]string{
		ClassIntALU: "intalu", ClassIntMul: "intmul", ClassFPALU: "fpalu",
		ClassLoad: "load", ClassStore: "store", ClassBranch: "branch",
		ClassVector: "vector",
	}
	for c, s := range want {
		if got := c.String(); got != s {
			t.Errorf("Class(%d).String() = %q, want %q", c, got, s)
		}
	}
}

func TestFusedOpcodeMetadata(t *testing.T) {
	seen := map[Opcode]bool{}
	for op := Opcode(0); op < 255; op++ {
		first, second, ok := op.FuseParts()
		if !ok {
			if op.IsFused() {
				t.Errorf("%d: IsFused true but FuseParts failed", op)
			}
			continue
		}
		seen[op] = true
		if !op.IsFused() {
			t.Errorf("%s: FuseParts ok but IsFused false", op)
		}
		if op.Valid() {
			t.Errorf("%s: fused opcode must not be Valid (wire format)", op)
		}
		if !first.Valid() || !second.Valid() {
			t.Errorf("%s: halves %s/%s not architectural opcodes", op, first, second)
		}
		if first.IsControl() {
			t.Errorf("%s: first half %s is a control instruction", op, first)
		}
		// A trailing jump is the block's successor in the VM, not a slot.
		if second == OpJmp {
			t.Errorf("%s: an x+jmp form is back in the table", op)
		}
		// Fuse must invert FuseParts exactly.
		if got, ok := Fuse(first, second); !ok || got != op {
			t.Errorf("Fuse(%s, %s) = %s, %v; want %s", first, second, got, ok, op)
		}
		// Mnemonic is "first.second" for debugging output.
		if want := first.String() + "." + second.String(); op.String() != want {
			t.Errorf("%s.String() = %q, want %q", op, op.String(), want)
		}
		// Fused opcodes have no single class; observers see unfused code.
		if op.ClassOf() != 0 {
			t.Errorf("%s: ClassOf = %v, want 0", op, op.ClassOf())
		}
	}
	if len(seen) == 0 || len(seen) != len(fusePairs) {
		t.Fatalf("%d fused opcodes found for the table's %d rows", len(seen), len(fusePairs))
	}
	// Architectural opcodes never collide with the fused space.
	for _, op := range archOpcodes(t) {
		if op >= FuseBase {
			t.Errorf("architectural opcode %s (%d) overlaps the fused space (FuseBase %d)", op, op, FuseBase)
		}
	}
}

func TestFuseRejectsNonPairs(t *testing.T) {
	if op, ok := Fuse(OpHalt, OpAdd); ok {
		t.Errorf("Fuse(halt, add) = %s, want no fusion", op)
	}
	if op, ok := Fuse(OpAdd, OpHalt); ok {
		t.Errorf("Fuse(add, halt) = %s, want no fusion", op)
	}
	if op, ok := Fuse(OpFuseAddAdd, OpAdd); ok {
		t.Errorf("Fuse of an already-fused opcode = %s, want no fusion", op)
	}
}

func TestOperandLimitsMatchOperands(t *testing.T) {
	lim := func(f RegFile) uint8 {
		if f == RegNone {
			return 1
		}
		return uint8(f.RegCount())
	}
	for _, op := range archOpcodes(t) {
		dst, a, b := op.Operands()
		ld, la, lb := op.OperandLimits()
		if ld != lim(dst) || la != lim(a) || lb != lim(b) {
			t.Errorf("%s: OperandLimits = (%d,%d,%d), want (%d,%d,%d)",
				op, ld, la, lb, lim(dst), lim(a), lim(b))
		}
	}
	if d, a, b := Opcode(250).OperandLimits(); d != 0 || a != 0 || b != 0 {
		t.Errorf("invalid opcode OperandLimits = (%d,%d,%d), want zeros", d, a, b)
	}
}

// TestClassTableMatchesMap holds the table's class column to a map written
// out independently of it: the classes are what the generator budgets and
// the profiler counts by, so a mistyped row must not pass.
func TestClassTableMatchesMap(t *testing.T) {
	want := map[Class][]Opcode{
		ClassIntALU: {OpAdd, OpSub, OpAnd, OpOr, OpXor, OpShl, OpShr, OpRor, OpCmpLT, OpCmpEQ, OpMov, OpMovI, OpAddI},
		ClassIntMul: {OpMul, OpMulH},
		ClassFPALU:  {OpFAdd, OpFSub, OpFMul, OpFDiv, OpFSqrt, OpFMov, OpFCvt, OpFToI},
		ClassLoad:   {OpLoad, OpFLoad},
		ClassStore:  {OpStore, OpFStore},
		ClassBranch: {OpBeq, OpBne, OpBlt, OpBge, OpJmp, OpHalt},
		ClassVector: {OpVAdd, OpVXor, OpVMul, OpVBcast, OpVRed},
	}
	n := 0
	for class, ops := range want {
		for _, op := range ops {
			n++
			if op.ClassOf() != class || MetaOf(op).Class() != class {
				t.Errorf("%s: ClassOf = %v, MetaOf class = %v, want %v", op, op.ClassOf(), MetaOf(op).Class(), class)
			}
		}
	}
	if n != len(archOpcodes(t)) {
		t.Errorf("the map classifies %d opcodes, the table defines %d", n, len(archOpcodes(t)))
	}
}

// TestOpMetaMatches pins the packed OpMeta word to the canonical
// per-opcode predicates for every possible opcode byte, including
// undefined and fused ones (which must read as invalid with all-zero
// operand bounds).
func TestOpMetaMatches(t *testing.T) {
	for i := 0; i < 256; i++ {
		op := Opcode(i)
		m := MetaOf(op)
		if got, want := m&MetaValid != 0, op.Valid(); got != want {
			t.Errorf("op %d: meta valid = %v, want %v", i, got, want)
		}
		if got, want := m&MetaControl != 0, op.Valid() && op.IsControl(); got != want {
			t.Errorf("op %d: meta control = %v, want %v", i, got, want)
		}
		wd, wa, wb := op.OperandLimits()
		if m.LimDst() != wd || m.LimA() != wa || m.LimB() != wb {
			t.Errorf("op %d: meta limits = (%d,%d,%d), want (%d,%d,%d)",
				i, m.LimDst(), m.LimA(), m.LimB(), wd, wa, wb)
		}
		var wantClass Class
		if op.Valid() {
			wantClass = op.ClassOf()
		}
		if m.Class() != wantClass {
			t.Errorf("op %d: meta class = %v, want %v", i, m.Class(), wantClass)
		}
	}
}
