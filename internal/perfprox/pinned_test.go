package perfprox

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"hashcore/internal/isa"
	"hashcore/internal/prog"
	"hashcore/internal/workload"
)

// pinnedGeneration holds, per profile, the SHA-256 over Program.Encode() of
// the widgets generated for seedFromUint64(0..255), concatenated in seed
// order. The constants were captured before the generator was rewritten as
// a flat emit loop; they pin generation alone, so on a platform whose
// digests disagree this test says whether the generator or the engine
// drifted.
var pinnedGeneration = map[string]string{
	"deepsjeng": "5e44948cbdebc77f63253578809e117bc4cdd1a2fbe43734d8e11f09491a646d",
	"exchange2": "cc4f1cba2a074cf8aca0651ce5cab4dc60a323c16161cd9e87a15f121d3504ac",
	"lbm":       "801647c8d4f67396df42429008599cf7c7f3253dd36dc478202bf44a789dd79b",
	"leela":     "9b787a0187a954339b19d1aa00b4f199cb7bb3d0cef80ac6ae4e1fb580081c36",
	"mcf":       "3629231c1e800db81ec69c83d32490830fd169cce4ad2ec1da0a3a5d79783eaf",
	"x264":      "b828f416e62f74f8ae905d6f6a4c787cfea1e0d9c2b6a533ce653ead60d09ad3",
}

// pinnedDisassembly is pinnedGeneration's twin over prog.Disassemble, the
// text `hashcore widget` prints, captured while an assembler still parsed
// that text back into the identical program. It pins the printer byte for
// byte.
var pinnedDisassembly = map[string]string{
	"deepsjeng": "97217b5d6fe7d506f1d46f7fd67aca6753e853fbb5bc5692370c6e1891bb1733",
	"exchange2": "559fc99e0b9ddd5df33544e49d3ca780c977da3ae73abbfc1b81838d29adf01e",
	"lbm":       "fe20863565265bd0289605a98cd6871e31f95155a1ad1b69e3ae06db2d0f5d6e",
	"leela":     "dc6118f055ab7bcd6496a35cec3c053a7d14e47cbc382f2b246c695699134db4",
	"mcf":       "13beb6182cccb6de4487c44ebbe5dc4c984306df4636fd0889c5d914b81500ae",
	"x264":      "2a9fee2e505dfa52ca2add293e63ec82d63cd13ce130c6650a6e5478f536d865",
}

func TestGeneratedProgramsPinned(t *testing.T) {
	checkPinned(t, "generated programs", pinnedGeneration, (*prog.Program).Encode)
}

func TestDisassemblyPinned(t *testing.T) {
	checkPinned(t, "disassemblies", pinnedDisassembly, func(p *prog.Program) []byte {
		return []byte(prog.Disassemble(p))
	})
}

// profileGenerator returns a generator for the built-in profile name.
func profileGenerator(t *testing.T, name string) *Generator {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGenerator(w.Profile, Params{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// checkPinned hashes form(p) of each profile's widgets for seeds 0..255,
// in seed order, and compares the SHA-256 with pins.
func checkPinned(t *testing.T, what string, pins map[string]string, form func(*prog.Program) []byte) {
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			var sc Scratch
			g := profileGenerator(t, name)
			h := sha256.New()
			for s := uint64(0); s < 256; s++ {
				p, err := g.GenerateInto(seedFromUint64(s), &sc)
				if err != nil {
					t.Fatal(err)
				}
				h.Write(form(p))
			}
			got := hex.EncodeToString(h.Sum(nil))
			if want := pins[name]; got != want {
				t.Errorf("%s: %s hash to %s, pinned %s", name, what, got, want)
			}
		})
	}
}

// TestDisassemblyIsInjective: the text loses nothing a run reads. In
// generated widgets of every profile, changing any operand field the op
// reads — Dst, A or B where the op has that operand, Imm where it uses
// one, Target on a jump or branch — or the memory declaration changes the
// rendered text. Disassemble writes one FormatInstr line per instruction,
// in order, so each instruction is checked on its own line.
func TestDisassemblyIsInjective(t *testing.T) {
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			g := profileGenerator(t, name)
			for s := uint64(0); s < 2; s++ {
				p, err := g.Generate(seedFromUint64(s))
				if err != nil {
					t.Fatal(err)
				}
				text := prog.Disassemble(p)
				for field, mutate := range map[string]func(*prog.Program){
					"MemSize": func(q *prog.Program) { q.MemSize *= 2 },
					"MemSeed": func(q *prog.Program) { q.MemSeed ^= 1 },
				} {
					q := *p
					mutate(&q)
					if prog.Disassemble(&q) == text {
						t.Fatalf("seed %d: changing %s leaves the text as it was", s, field)
					}
				}
				for i, ins := range p.Code {
					line := prog.FormatInstr(ins)
					for _, v := range operandVariants(ins, len(p.Blocks)) {
						if prog.FormatInstr(v) == line {
							t.Fatalf("seed %d, instruction %d: %+v and %+v both render as %q", s, i, ins, v, line)
						}
					}
				}
			}
		})
	}
}

// operandVariants returns copies of ins that each differ from it in one
// operand field ins.Op reads: every other register of the operand's file,
// nearby and sign- or high-bit-flipped immediates, and the neighbouring
// block targets.
func operandVariants(ins prog.Instr, blocks int) []prog.Instr {
	var out []prog.Instr
	add := func(v prog.Instr) {
		if v != ins {
			out = append(out, v)
		}
	}
	dst, a, b := ins.Op.Operands()
	for _, reg := range []struct {
		file  isa.RegFile
		field func(*prog.Instr) *uint8
	}{
		{dst, func(v *prog.Instr) *uint8 { return &v.Dst }},
		{a, func(v *prog.Instr) *uint8 { return &v.A }},
		{b, func(v *prog.Instr) *uint8 { return &v.B }},
	} {
		if reg.file == isa.RegNone {
			continue
		}
		for r := 0; r < reg.file.RegCount(); r++ {
			v := ins
			*reg.field(&v) = uint8(r)
			add(v)
		}
	}
	if ins.Op.HasImm() {
		for _, imm := range []int64{ins.Imm + 1, ins.Imm - 1, -ins.Imm, ins.Imm ^ 1<<62} {
			v := ins
			v.Imm = imm
			add(v)
		}
	}
	if ins.Op == isa.OpJmp || ins.Op.IsCondBranch() {
		for _, d := range []int{1, blocks - 1} {
			v := ins
			v.Target = uint32((int(ins.Target) + d) % blocks)
			add(v)
		}
	}
	return out
}
