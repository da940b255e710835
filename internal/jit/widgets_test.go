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
				want, err := encoder.EncodeReference(p)
				if err != nil {
					t.Fatal(err)
				}
				code, err := stamper.Compile(p)
				if err != nil {
					t.Fatal(err)
				}
				if got := code.Text(); !bytes.Equal(got, want) {
					t.Fatalf("seed %d: %s", s, jit.FirstDifference(got, want))
				}
				instrs += len(p.Code)
				untemplated += stamper.Encoded()
				nLong := 0
				for _, ins := range p.Code {
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
	progs := make([]*prog.Program, 64)
	instrs := 0
	for i := range progs {
		if progs[i], err = gen.Generate(perfprox.Seed{byte(i), 0xC0}); err != nil {
			b.Fatal(err)
		}
		instrs += len(progs[i].Code)
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
