//go:build amd64 && linux

package jit_test

import (
	"bytes"
	"fmt"
	"testing"

	"hashcore/internal/isa"
	"hashcore/internal/jit"
	"hashcore/internal/perfprox"
	"hashcore/internal/prog"
	"hashcore/internal/workload"
)

// jitProgram presents a generated widget's flat stream in the compiler's
// input form, field for field as vm does by reinterpretation.
func jitProgram(p *prog.Program) *jit.Program {
	jp := &jit.Program{}
	for _, fi := range p.Flat {
		jp.Instrs = append(jp.Instrs, jit.Instr{
			Imm: fi.Imm, PC: fi.Target, Target: fi.Aux,
			Op: fi.Op, Class: fi.Class, Dst: fi.Dst, A: fi.A, B: fi.B,
		})
	}
	start := uint32(0)
	for _, s := range p.Stats {
		jp.Blocks = append(jp.Blocks, jit.BlockSpan{Start: start, Count: s.Len})
		start += s.Len
	}
	return jp
}

// TestStampedEqualsEncodedOnWidgets compiles generated widgets of every
// profile and requires the installed code to equal, byte for byte, what
// the encoder alone writes for the same program — the property that keeps
// digests, snapshots and golden vectors out of the templates' reach. One
// Compiler serves all programs of a profile, as a hashing session's does.
func TestStampedEqualsEncodedOnWidgets(t *testing.T) {
	for _, w := range workload.All() {
		t.Run(w.Name, func(t *testing.T) {
			gen, err := perfprox.NewGenerator(w.Profile, perfprox.Params{})
			if err != nil {
				t.Fatal(err)
			}
			stamper, encoder := jit.NewCompiler(), jit.NewCompiler()
			instrs, untemplated := 0, 0
			// The fallback is for these long lowerings only; anything else
			// lowered by the encoder means the stamper has silently stopped
			// being the compiler.
			long := map[isa.Opcode]bool{isa.OpFToI: true, isa.OpVAdd: true, isa.OpVXor: true,
				isa.OpVMul: true, isa.OpVBcast: true, isa.OpVRed: true}
			for s := 0; s < 10; s++ {
				var seed perfprox.Seed
				copy(seed[:], fmt.Sprintf("%s/%d", w.Name, s))
				p, err := gen.Generate(seed)
				if err != nil {
					t.Fatal(err)
				}
				jp := jitProgram(p)
				want, err := encoder.EncodeReference(jp)
				if err != nil {
					t.Fatal(err)
				}
				code, err := stamper.Compile(jp)
				if err != nil {
					t.Fatal(err)
				}
				if got := code.Text(); !bytes.Equal(got, want) {
					t.Fatalf("seed %d: %s", s, jit.FirstDifference(got, want))
				}
				instrs += len(jp.Instrs)
				untemplated += stamper.Encoded()
				nLong := 0
				for _, ins := range jp.Instrs {
					if long[ins.Op] {
						nLong++
					}
				}
				if got := stamper.Encoded(); got != nLong {
					t.Errorf("seed %d: the encoder lowered %d instructions, want the %d long ones", s, got, nLong)
				}
			}
			t.Logf("%d instructions, %d lowered by the encoder", instrs, untemplated)
		})
	}
}

// BenchmarkCompile measures Compile alone, rotating through 64 leela
// widgets so the branch predictor cannot learn any one program (a hashing
// session compiles a fresh widget per hash).
func BenchmarkCompile(b *testing.B) {
	w, err := workload.ByName("leela")
	if err != nil {
		b.Fatal(err)
	}
	gen, err := perfprox.NewGenerator(w.Profile, perfprox.Params{})
	if err != nil {
		b.Fatal(err)
	}
	progs := make([]*jit.Program, 64)
	instrs := 0
	for i := range progs {
		p, err := gen.Generate(perfprox.Seed{byte(i), 0xC0})
		if err != nil {
			b.Fatal(err)
		}
		progs[i] = jitProgram(p)
		instrs += len(progs[i].Instrs)
	}
	c := jit.NewCompiler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Compile(progs[i%len(progs)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(float64(instrs)/float64(len(progs))), "ns/instr")
}
