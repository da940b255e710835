package main

import (
	"encoding/binary"
	"fmt"

	"hashcore/internal/asm"
	"hashcore/internal/gate"
	"hashcore/internal/perfprox"
	"hashcore/internal/vm"
	"hashcore/internal/workload"
)

// runDumpWidget prints every representation of one widget program — the
// architectural stream, the fused stream the interpreter's fast loop
// executes (superinstructions in one slot, each block headed by its
// successor, a trailing jmp folded into it), and what the JIT compiles
// from the same block structure (its shared scratch-memory routines and
// each block's code size) — for codegen debugging, then runs it once to
// report how much of its scratch memory it writes. The widget is the one
// the production pipeline would run first for the input LE64(seed): its
// generator seed is the hash gate applied to that input, exactly as
// Session.Hash derives it, so a digest divergence seen in the differential
// tests can be replayed here and inspected instruction by instruction.
func runDumpWidget(profileName string, seed uint64) error {
	w, err := workload.ByName(profileName)
	if err != nil {
		return err
	}
	gen, err := perfprox.NewGenerator(w.Profile, perfprox.Params{})
	if err != nil {
		return err
	}
	var input [8]byte
	binary.LittleEndian.PutUint64(input[:], seed)
	widgetSeed := perfprox.Seed(gate.SHA256{}.Sum(input[:]))
	p, err := gen.Generate(widgetSeed)
	if err != nil {
		return err
	}

	fmt.Printf("; profile=%s seed=%d widget-seed=%x\n", profileName, seed, widgetSeed[:8])
	fmt.Println("; ---- architectural stream ----")
	fmt.Print(asm.Disassemble(p))

	var m vm.Machine
	if err := m.Load(p); err != nil {
		return err
	}
	fmt.Println("; ---- fused stream (interpreter dispatch; block headers name the successor) ----")
	fmt.Print(m.DisassembleFused())

	if native, err := m.DumpNative(); err != nil {
		fmt.Printf("; ---- native code: unavailable (%v) ----\n", err)
	} else {
		fmt.Println("; ---- native code (shared memory routines, per-block sizes) ----")
		fmt.Print(native)
	}

	// The sparsity the memory model relies on, for this widget.
	m.TrackMemory(true)
	res := m.Run(vm.Params{}, nil)
	fmt.Printf("; ---- run: %d instructions retired, %d of %d scratch-memory words written ----\n",
		res.Retired, m.LastRunStats().WordsWritten, p.MemSize/8)
	return nil
}
