package vm_test

// The observer's event stream, pinned. internal/uarch and the profiler
// consume vm.Events, so the per-instruction executor must not only retire
// the same architectural state as every other engine (the dense oracle
// decides that) but describe it identically: same static ids, operands,
// effective addresses and branch outcomes, in the same order. The
// constants below were recorded on the last commit that had a dedicated
// observed loop (PR 16, a3970b9) and have to survive every refactor of the
// executor.

import (
	"testing"

	"hashcore/internal/perfprox"
	"hashcore/internal/vm"
	"hashcore/internal/workload"
)

// eventHasher folds every field of every Event it is shown into an FNV-1a
// hash.
type eventHasher struct{ h uint64 }

func newEventHasher() *eventHasher { return &eventHasher{h: 14695981039346656037} }

func (e *eventHasher) word(v uint64, bytes int) {
	for i := 0; i < bytes; i++ {
		e.h = (e.h ^ (v >> (8 * i) & 0xff)) * 1099511628211
	}
}

func (e *eventHasher) flag(b bool) {
	if b {
		e.word(1, 1)
	} else {
		e.word(0, 1)
	}
}

func (e *eventHasher) OnRetire(ev *vm.Event) {
	e.word(uint64(ev.StaticID), 4)
	e.word(uint64(ev.Op), 1)
	e.word(uint64(ev.Class), 1)
	e.word(uint64(ev.Dst), 1)
	e.word(uint64(ev.A), 1)
	e.word(uint64(ev.B), 1)
	e.word(ev.Addr, 8)
	e.flag(ev.IsMem)
	e.flag(ev.Taken)
}

func TestEventStreamPinned(t *testing.T) {
	for _, tc := range []struct {
		profile          string
		natural, clipped uint64 // event-stream hashes: default run, interval 7 under a truncating budget
	}{
		{"leela", 0x4e342dcf4cdc44fd, 0x1c8277ed586bbf01},
		{"mcf", 0x733852e8da8bbf98, 0x0b7f63b7c5b205ca},
		{"lbm", 0x70faa277958d7921, 0xf2a2ad4f30fa64fe},
	} {
		w, err := workload.ByName(tc.profile)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := perfprox.NewGenerator(w.Profile, perfprox.Params{})
		if err != nil {
			t.Fatal(err)
		}
		p, err := gen.Generate(seedFromWords(17, 0xe7e47))
		if err != nil {
			t.Fatal(err)
		}
		m, err := vm.New(p)
		if err != nil {
			t.Fatal(err)
		}
		h := newEventHasher()
		full := m.Run(vm.Params{}, h)
		if full.Truncated {
			t.Fatalf("%s: the default budget truncated the widget", tc.profile)
		}
		if h.h != tc.natural {
			t.Errorf("%s: default run: event stream hashes to %#x, want %#x", tc.profile, h.h, tc.natural)
		}
		h = newEventHasher()
		cut := m.Run(vm.Params{SnapshotInterval: 7, MaxInstructions: full.Retired/2 + 1}, h)
		if !cut.Truncated {
			t.Fatalf("%s: a budget of half the widget did not truncate it", tc.profile)
		}
		if h.h != tc.clipped {
			t.Errorf("%s: interval 7, truncated: event stream hashes to %#x, want %#x", tc.profile, h.h, tc.clipped)
		}
	}
}
