package main

import (
	"fmt"
	"math"
	"time"

	"hashcore"
	"hashcore/internal/gate"
	"hashcore/internal/perfprox"
	"hashcore/internal/vm"
	profiles "hashcore/internal/workload"
)

// hashBudget measures the hash pipeline layer by layer on the workload's
// own hash inputs, in two ways. The decomposed replay walks one hash by
// hand through the public functions of each layer — gate, widget
// generation, VM load, native compile, scratch-memory fill, execution,
// gate — one span per call, serially, and requires the digest to equal
// Session.Hash. The in-situ pass hashes the same inputs through
// Session.HashTimed, where the fill overlaps generation, and yields the
// time the pipeline waited for it. The parts of the first, with the fill's
// busy time replaced by its wait, must add up to the wall time of the
// second; core.unattributed_pct is the gap. With one session and an idle
// core the helper fills the image on that other core and the run then
// finds it in the wrong cache: that cost lies in no layer's span and shows
// here. The mining workloads, whose sessions keep every core busy, close
// their budget against the traced run itself instead (mineInst.layers).
func hashBudget(tr *tracer, profileName, backend string, inputs [][]byte) (layers map[string]float64, mismatches int, err error) {
	h, err := hashcore.New(hashcore.WithProfile(profileName), hashcore.WithBackend(backend))
	if err != nil {
		return nil, 0, err
	}
	sess := h.NewSession()
	defer sess.Close()
	ref, err := profiles.ByName(profileName)
	if err != nil {
		return nil, 0, err
	}
	gen, err := perfprox.NewGenerator(ref.Profile, perfprox.Params{})
	if err != nil {
		return nil, 0, err
	}
	be, err := vm.ParseBackend(backend)
	if err != nil {
		return nil, 0, err
	}
	var (
		g       gate.SHA256
		sc      perfprox.Scratch
		m       vm.Machine
		res     vm.Result
		buf     []byte
		native  bool
		retired uint64
		code    int
		arch    int
		fused   int
		bounced int
	)
	m.SetBackend(be)
	native = m.BackendSelected() == vm.BackendNative

	walk := func(t *tracer, input []byte) (hashcore.Digest, error) {
		op := t.op()
		root := t.begin("core.hash", -1, op)
		s := t.begin("gate", root, op)
		seed := g.Sum(input)
		t.end(s)

		s = t.begin("perfprox.gen", root, op)
		size, memSeed := gen.MemoryPlan(perfprox.Seed(seed))
		widget, err := gen.GenerateInto(perfprox.Seed(seed), &sc)
		t.end(s)
		if err != nil {
			return hashcore.Digest{}, err
		}

		s = t.begin("vm.load", root, op)
		m.LoadTrusted(widget)
		t.end(s)

		if native {
			s = t.begin("jit.compile", root, op)
			n, _ := m.CompileNative() // a failure shows as a fallback below
			t.end(s)
			code += n
		}

		s = t.begin("rng.fill", root, op)
		m.PrepareMemory(size, memSeed)
		t.end(s)

		s = t.begin("vm.exec", root, op)
		m.RunInto(vm.Params{}, nil, &res)
		t.end(s)

		s = t.begin("gate", root, op)
		buf = append(append(buf[:0], seed[:]...), res.Output...)
		d := g.Sum(buf)
		t.end(s)
		t.end(root)

		retired += res.Retired
		a, f := m.CodeSize()
		arch, fused = arch+a, fused+f
		if native && m.LastRunStats().Backend != vm.BackendNative {
			bounced++
		}
		return d, nil
	}

	// Bring both engines to their buffer high-water marks first.
	warm := inputs
	if len(warm) > 8 {
		warm = warm[:8]
	}
	scratch := newTracer()
	for _, in := range warm {
		if _, err := walk(scratch, in); err != nil {
			return nil, 0, err
		}
		if _, err := sess.Hash(in); err != nil {
			return nil, 0, err
		}
	}
	retired, code, arch, fused, bounced = 0, 0, 0, 0, 0

	first := len(tr.spans)
	digests := make([]hashcore.Digest, len(inputs))
	for i, in := range inputs {
		if digests[i], err = walk(tr, in); err != nil {
			return nil, 0, err
		}
	}
	var pt hashcore.PhaseTimings
	t0 := time.Now()
	for i, in := range inputs {
		d, err := sess.HashTimed(in, &pt)
		if err != nil {
			return nil, 0, err
		}
		if d != digests[i] {
			mismatches++
		}
	}
	wall := float64(time.Since(t0).Nanoseconds())

	n := float64(len(inputs))
	if n == 0 {
		return nil, 0, fmt.Errorf("hash budget needs inputs")
	}
	self := tr.selfTimes(first)
	per := func(name string) float64 { return float64(self[name]) / n }
	layers = map[string]float64{
		"gate.ns_per_hash":          per("gate"),
		"perfprox.gen_ns_per_hash":  per("perfprox.gen"),
		"vm.load_ns_per_hash":       per("vm.load"),
		"jit.compile_ns_per_hash":   per("jit.compile"),
		"jit.code_bytes_per_widget": float64(code) / n,
		"rng.fill_busy_ns_per_hash": per("rng.fill"),
		"rng.fill_wait_ns_per_hash": float64(pt.FillNs) / n,
		"vm.exec_ns_per_hash":       per("vm.exec"),
		"vm.retired_per_hash":       float64(retired) / n,
		"vm.fused_per_arch_instr":   float64(fused) / float64(arch),
		"vm.effective_mips":         float64(retired) / (float64(self["vm.exec"]) / 1e9) / 1e6,
		"jit.fallback_ratio":        float64(bounced) / n,
	}
	layers["core.unattributed_pct"] = unattributedPct(layers, wall/n, float64(pt.FillNs)/n)
	return layers, mismatches, nil
}

// unattributedPct is the share of a hash's in-situ wall time that the
// layer parts do not account for: the parts run one after the other
// except the fill, of which only the wait is on the hash's path.
func unattributedPct(layers map[string]float64, wallNs, fillWaitNs float64) float64 {
	parts := layers["gate.ns_per_hash"] + layers["perfprox.gen_ns_per_hash"] + layers["vm.load_ns_per_hash"] +
		layers["jit.compile_ns_per_hash"] + layers["vm.exec_ns_per_hash"] + fillWaitNs
	return 100 * math.Abs(wallNs-parts) / wallNs
}
