package vm

import (
	"strings"
	"testing"

	"hashcore/internal/isa"
	"hashcore/internal/prog"
)

// TestDisassembleFused sanity-checks the listing on a program with both
// fused and unfused slots: block headers present and naming each block's
// successor, one line per fused slot, fused pairs rendered with both
// halves, a trailing jmp in the header and in no slot.
func TestDisassembleFused(t *testing.T) {
	b := prog.NewBuilder(prog.MinMemSize, 7)
	entry := b.NewBlock()
	exit := b.NewBlock()
	last := b.NewBlock()
	b.SetBlock(entry)
	b.MovI(1, 5)
	b.Op3(isa.OpAdd, 2, 1, 1) // add+xor fuses
	b.Op3(isa.OpXor, 4, 2, 1) //
	b.Op2(isa.OpFCvt, 0, 2)   // unfused slot
	b.Op3(isa.OpCmpLT, 3, 1, 2)
	b.Branch(isa.OpBne, 3, 0, prog.Label(exit)) // cmp+branch fuses
	b.SetBlock(exit)
	b.Op3(isa.OpSub, 2, 2, 1)
	b.Jmp(last) // folded into the block header
	b.SetBlock(last)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	text := m.DisassembleFused()
	for _, header := range []string{".block 0 ; next @1\n", ".block 1 ; next @2 (jmp folded)\n", ".block 2 ; next @3\n"} {
		if !strings.Contains(text, header) {
			t.Errorf("listing is missing the block header %q:\n%s", header, text)
		}
	}
	if strings.Contains(text, "jmp @") {
		t.Errorf("the folded jmp still takes a slot:\n%s", text)
	}
	lines, sawFused := 0, false
	for _, ln := range strings.Split(text, "\n") {
		if strings.HasPrefix(ln, "\t") {
			lines++
			if strings.Contains(ln, " | ") {
				sawFused = true
			}
		}
	}
	if lines != len(m.fcode) {
		t.Errorf("listing has %d instruction lines, fused stream has %d slots:\n%s", lines, len(m.fcode), text)
	}
	if !sawFused {
		t.Errorf("listing renders no fused pairs:\n%s", text)
	}
	if !strings.Contains(text, "cmplt.bne ") {
		t.Errorf("expected a cmplt.bne slot in:\n%s", text)
	}
}
