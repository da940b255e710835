// Command hashcore is the CLI front-end to the HashCore PoW function:
// hash inputs, dump generated widgets, inspect pipeline intermediates,
// and mine/verify nonces.
//
// Usage:
//
//	hashcore hash [-profile leela] <input-string>
//	hashcore widget [-profile leela] <input-string>
//	hashcore inspect [-profile leela] <input-string>
//	hashcore dump-widget [-profile leela] <input-string>
//	hashcore mine [-profile leela] [-bits 8] [-workers 2] <prefix-string>
//	hashcore verify [-profile leela] [-bits 8] -nonce N <prefix-string>
//	hashcore profiles
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"hashcore"
	"hashcore/internal/asm"
	"hashcore/internal/vm"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hashcore:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) < 1 {
		return usageError()
	}
	cmd, rest := args[0], args[1:]

	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	profileName := fs.String("profile", "leela", "reference workload profile")
	bits := fs.Uint("bits", 8, "difficulty: required leading zero bits")
	workers := fs.Int("workers", 2, "mining worker goroutines")
	nonce := fs.Uint64("nonce", 0, "nonce to verify")
	widgets := fs.Int("widgets", 1, "number of chained widgets")

	switch cmd {
	case "profiles":
		for _, name := range hashcore.Profiles() {
			fmt.Println(name)
		}
		return nil
	case "hash", "widget", "inspect", "dump-widget", "mine", "verify":
		if err := fs.Parse(rest); err != nil {
			return err
		}
		input := strings.Join(fs.Args(), " ")
		if input == "" {
			return fmt.Errorf("%s: missing input string", cmd)
		}
		h, err := hashcore.New(
			hashcore.WithProfile(*profileName),
			hashcore.WithWidgets(*widgets),
		)
		if err != nil {
			return err
		}
		return dispatch(cmd, h, input, *bits, *workers, *nonce)
	default:
		return usageError()
	}
}

func dispatch(cmd string, h *hashcore.Hasher, input string, bits uint, workers int, nonce uint64) error {
	switch cmd {
	case "hash":
		digest, err := h.Hash([]byte(input))
		if err != nil {
			return err
		}
		fmt.Printf("%x\n", digest)
		return nil
	case "widget":
		src, err := h.WidgetSource([]byte(input))
		if err != nil {
			return err
		}
		fmt.Print(src)
		return nil
	case "inspect":
		info, err := h.Inspect([]byte(input))
		if err != nil {
			return err
		}
		fmt.Printf("profile:              %s\n", h.ProfileName())
		fmt.Printf("seed:                 %x\n", info.Seed)
		fmt.Printf("static instructions:  %d\n", info.StaticInstructions)
		fmt.Printf("dynamic instructions: %d\n", info.DynamicInstructions)
		fmt.Printf("widget output:        %d bytes\n", info.OutputBytes)
		fmt.Printf("digest:               %x\n", info.Digest)
		return nil
	case "dump-widget":
		return dumpWidget(h, []byte(input))
	case "mine":
		target := hashcore.TargetWithZeroBits(bits)
		fmt.Printf("mining %q at %d leading zero bits with %s...\n", input, bits, h.Name())
		res, err := h.Mine(context.Background(), []byte(input), target, workers)
		if err != nil {
			return err
		}
		fmt.Printf("nonce:    %d\n", res.Nonce)
		fmt.Printf("attempts: %d\n", res.Attempts)
		fmt.Printf("digest:   %x\n", res.Digest)
		return nil
	case "verify":
		target := hashcore.TargetWithZeroBits(bits)
		ok, err := h.VerifyNonce([]byte(input), nonce, target)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("nonce %d does NOT meet %d bits for %q", nonce, bits, input)
		}
		fmt.Printf("nonce %d valid for %q at %d bits\n", nonce, input, bits)
		return nil
	}
	return usageError()
}

func usageError() error {
	return fmt.Errorf("usage: hashcore <hash|widget|inspect|dump-widget|mine|verify|profiles> [flags] <input>")
}

// dumpWidget prints every representation of the widget input selects —
// the architectural stream (the text `hashcore widget` prints), the fused
// stream the interpreter's fast loop executes (superinstructions in one
// slot, each block headed by its successor, a trailing jmp folded into
// it), and what the JIT compiles from the same block structure (its
// shared scratch-memory routines and each block's code size) — for codegen
// debugging, then runs it once to report how much of its scratch memory
// it writes and the size of the VM's table of those words. It is the
// widget Hash(input) runs first, so a digest divergence seen in the
// differential tests can be replayed here and inspected instruction by
// instruction.
func dumpWidget(h *hashcore.Hasher, input []byte) error {
	src, err := h.WidgetSource(input)
	if err != nil {
		return err
	}
	p, err := asm.Assemble(src)
	if err != nil {
		return err
	}
	// The engine the hasher runs on: hashcore.New has validated the value.
	backend, err := vm.ParseBackend(os.Getenv("HASHCORE_BACKEND"))
	if err != nil {
		return err
	}
	var m vm.Machine
	m.SetBackend(backend)
	if err := m.Load(p); err != nil {
		return err
	}

	fmt.Printf("; profile=%s input=%q backend=%s\n", h.ProfileName(), input, m.BackendSelected())
	fmt.Println("; ---- architectural stream ----")
	fmt.Print(src)
	fmt.Println("; ---- fused stream (interpreter dispatch; block headers name the successor) ----")
	fmt.Print(m.DisassembleFused())

	native, err := "", errors.New("the interpreter backend is selected")
	if m.BackendSelected() == vm.BackendNative {
		native, err = m.DumpNative()
	}
	if err != nil {
		fmt.Printf("; ---- native code: unavailable (%v) ----\n", err)
	} else {
		fmt.Println("; ---- native code (shared memory routines, per-block sizes) ----")
		fmt.Print(native)
	}

	// The sparsity the memory model relies on, for this widget, what
	// holding the written words costs, and how full the written filter is.
	res := m.Run(vm.Params{}, nil)
	st := m.LastRunStats()
	set, of := m.FilterBitsSet()
	fmt.Printf("; ---- run: %d instructions retired, %d of %d scratch-memory words written (table: %d slots, %d bytes; filter: %d of %d bits set) ----\n",
		res.Retired, st.WordsWritten, p.MemSize/8, st.TableSlots, st.TableSlots*16, set, of)
	return nil
}
