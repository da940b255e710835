package asm_test

import (
	"testing"

	"hashcore/internal/asm"
	"hashcore/internal/prog"
	"hashcore/internal/vm"
)

// FuzzAssemble feeds arbitrary text to the assembler. It must never panic,
// and whatever it accepts must be a program in full: valid, loadable,
// runnable on the interpreter without a fault, and stable under the
// textual round trip — its disassembly assembles, to a program whose
// disassembly is the same text. Every accepted program runs, whatever
// memory it declares (the VM's written filter is 32 KiB at any size).
// The seed corpus (testdata/fuzz/FuzzAssemble) holds one shrunken
// generated widget per family — integer, floating point, vector — and one
// program declaring prog.MaxMemSize.
func FuzzAssemble(f *testing.F) {
	f.Add(".mem 4096 1\n.block 0\n\tmovi r1, -0x10\n\tload r2, [r1+8]\n\tbne r1, r2, @0\n.block 1\n\thalt\n")
	f.Add(".block 0\nhalt\n.mem 0x2000 7 ; declared last")
	m := &vm.Machine{}
	m.SetBackend(vm.BackendInterp)
	var res vm.Result
	f.Fuzz(func(t *testing.T, src string) {
		p, err := asm.Assemble(src)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("Assemble accepted a program that does not validate: %v", err)
		}
		text := prog.Disassemble(p)
		q, err := asm.Assemble(text)
		if err != nil {
			t.Fatalf("the disassembly of an accepted program does not assemble: %v\n%s", err, text)
		}
		if again := prog.Disassemble(q); again != text {
			t.Fatalf("disassembly is not a fixed point:\n%s\nthen\n%s", text, again)
		}
		if err := m.Load(p); err != nil {
			t.Fatalf("Load: %v", err)
		}
		m.RunInto(vm.Params{MaxInstructions: 4096}, nil, &res)
	})
}
