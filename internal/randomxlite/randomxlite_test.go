package randomxlite

import (
	"bytes"
	"math"
	"testing"

	"hashcore/internal/isa"
	"hashcore/internal/uarch"
	"hashcore/internal/vm"
)

func TestNewGeneratorValidation(t *testing.T) {
	if _, err := NewGenerator(Params{ScratchSize: 1000}); err == nil {
		t.Error("non-pow2 scratch accepted")
	}
	if _, err := NewGenerator(Params{ProgramSize: 1}); err == nil {
		t.Error("tiny program accepted")
	}
	if _, err := NewGenerator(Params{Iterations: -1}); err == nil {
		t.Error("negative iterations accepted")
	}
	if _, err := NewGenerator(Params{}); err != nil {
		t.Errorf("defaults rejected: %v", err)
	}
}

func TestGenerateDeterministicAndSeedSensitive(t *testing.T) {
	g, err := NewGenerator(Params{Iterations: 16})
	if err != nil {
		t.Fatal(err)
	}
	var s1, s2 [32]byte
	s2[31] = 1
	a, err := g.Generate(s1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Generate(s1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := g.Generate(s2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Encode(), b.Encode()) {
		t.Fatal("same seed gave different programs")
	}
	if bytes.Equal(a.Encode(), c.Encode()) {
		t.Fatal("different seeds gave identical programs")
	}
}

// TestUniformMix: the defining property vs HashCore — the class mix is
// near-uniform over the six structural classes rather than matched to a
// workload.
func TestUniformMix(t *testing.T) {
	g, err := NewGenerator(Params{Iterations: 64})
	if err != nil {
		t.Fatal(err)
	}
	p, err := g.Generate([32]byte{7})
	if err != nil {
		t.Fatal(err)
	}
	r, err := uarch.MeasureFunctional("rxl", p, vm.Params{})
	if err != nil {
		t.Fatal(err)
	}
	for _, class := range classes {
		f := r.Mix[class]
		if math.Abs(f-1.0/6) > 0.08 {
			t.Errorf("class %s fraction %.3f deviates from uniform 1/6", class, f)
		}
	}
	if r.Mix[isa.ClassBranch] > 0.05 {
		t.Errorf("branch fraction %.3f unexpectedly high", r.Mix[isa.ClassBranch])
	}
}

func TestHasher(t *testing.T) {
	h, err := NewHasher(Params{Iterations: 16, ProgramSize: 64}, nil, vm.Params{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := h.Hash([]byte("header"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Hash([]byte("header"))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("hasher nondeterministic")
	}
	c, err := h.Hash([]byte("headerX"))
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatal("distinct headers collided")
	}
	if h.Name() != "randomx-lite" {
		t.Errorf("Name = %q", h.Name())
	}
}

func TestProgramTerminates(t *testing.T) {
	g, err := NewGenerator(Params{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := g.Generate([32]byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := vm.Run(p, vm.Params{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Fatal("random program truncated")
	}
	want := uint64(512*258) + 20 // iterations * (program+2 bookkeeping) + prologue-ish
	if res.Retired < want/2 || res.Retired > want*2 {
		t.Errorf("retired %d, expected near %d", res.Retired, want)
	}
}
