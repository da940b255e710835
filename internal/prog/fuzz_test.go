package prog_test

import (
	"bytes"
	"testing"

	"hashcore/internal/prog"
	"hashcore/internal/vm"
)

// FuzzDecode feeds arbitrary bytes to the wire decoder, which widget pools
// hand bytes from outside the process. It must never panic, and whatever
// it accepts must be a program in full: valid, loadable, runnable on the
// interpreter without a fault, and the one program that encodes to those
// bytes. Every accepted program runs, whatever memory it declares: the VM
// keeps a map of one bit per declared word and a table of the words
// stored, so prog.MaxMemSize costs a 4 MiB map. The seed corpus
// (testdata/fuzz/FuzzDecode) holds one shrunken generated widget per
// family — integer, floating point, vector — and one program declaring
// prog.MaxMemSize.
func FuzzDecode(f *testing.F) {
	f.Add([]byte("HCW1"))
	f.Add(append([]byte("HCW1\x0c\x00\x00\x00seedseed"), 0xff, 0xff, 0x0f, 0x00)) // claims 2^20-1 blocks
	m := &vm.Machine{}
	m.SetBackend(vm.BackendInterp)
	var res vm.Result
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := prog.Decode(data)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("Decode accepted a program that does not validate: %v", err)
		}
		if !bytes.Equal(p.Encode(), data) {
			t.Fatal("an accepted program does not re-encode to the bytes it came from")
		}
		if err := m.Load(p); err != nil {
			t.Fatalf("Load: %v", err)
		}
		m.RunInto(vm.Params{MaxInstructions: 4096}, nil, &res)
	})
}
