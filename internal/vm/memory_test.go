package vm

import (
	"testing"

	"hashcore/internal/prog"
	"hashcore/internal/rng"
	"hashcore/internal/workload/refprog"
)

// edgeProgram stores to the last word of a size-byte image, loads it back
// together with the pristine word before it and word 0, and halts.
func edgeProgram(t *testing.T, size int, memSeed uint64) *prog.Program {
	t.Helper()
	b := refprog.NewBuilder(size, memSeed)
	b.NewBlock()
	b.MovI(1, int64(size-8))
	b.MovI(2, 0x5eed)
	b.Store(1, 2, 0)
	b.Load(3, 1, 0)  // the stored word
	b.Load(4, 1, -8) // its pristine neighbour
	b.Load(5, 1, 8)  // wraps to word 0
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestWrittenMapSizing pins the filter's geometry: 4,096 uint64s — a bit
// per 8-byte word of a 2 MiB image — for every image size from
// prog.MinMemSize to prog.MaxMemSize, in which the last word of the image
// sets exactly the bit it owns, its index mod 2^18, on both engines.
func TestWrittenMapSizing(t *testing.T) {
	for size := prog.MinMemSize; size <= prog.MaxMemSize; size *= 2 {
		const memSeed = 77
		p := edgeProgram(t, size, memSeed)
		lastWord := uint64(size/8 - 1)
		bit := lastWord % (1 << 18)
		for _, be := range []Backend{BackendInterp, BackendNative} {
			m := &Machine{}
			m.SetBackend(be)
			if err := m.Load(p); err != nil {
				t.Fatal(err)
			}
			m.Run(Params{}, nil)
			if len(m.written) != 4096 {
				t.Fatalf("%d-byte image on %v: %d filter words, want 4096", size, be, len(m.written))
			}
			for i, w := range m.written {
				want := uint64(0)
				if uint64(i) == bit>>6 {
					want = 1 << (bit & 63)
				}
				if w != want {
					t.Errorf("%d-byte image on %v: filter word %d = %#x, want %#x", size, be, i, w, want)
				}
			}
			if st := m.LastRunStats(); st.WordsWritten != 1 {
				t.Errorf("%d-byte image on %v: WordsWritten = %d, want 1", size, be, st.WordsWritten)
			}
			want := [3]uint64{0x5eed, rng.SplitMix64At(memSeed, lastWord-1), rng.SplitMix64At(memSeed, 0)}
			if got := [3]uint64(m.intRegs[3:6]); got != want {
				t.Errorf("%d-byte image on %v: loaded %#x, want %#x", size, be, got, want)
			}
		}
	}
}

// TestResetClearsPreviousExtent: whatever image the last run had — a large
// one, whose words set bits all over the filter, then a small one — a
// reset leaves no bit set anywhere in the filter.
func TestResetClearsPreviousExtent(t *testing.T) {
	m := &Machine{}
	m.SetBackend(BackendInterp)
	m.LoadTrusted(edgeProgram(t, 64<<20, 1))
	m.Run(Params{}, nil)
	m.LoadTrusted(edgeProgram(t, prog.MinMemSize, 1))
	m.Run(Params{}, nil)
	m.PrepareMemory(prog.MinMemSize, 1)
	for i, w := range m.written {
		if w != 0 {
			t.Fatalf("filter word %d still holds %#x after resets", i, w)
		}
	}
}

// TestRerunClearsWrittenMap: a Machine that runs the same load again — the
// miner's re-hash pattern — starts from a clean written filter each time. The
// program's first action reads a word its previous run stored to, so a bit
// that survived the reset would hand it that run's stored word instead of
// the pristine one. (Reuse across image sizes and seeds, the other half of
// the reset contract, is TestMachineReuseAcrossImageSizes and
// TestResetClearsPreviousExtent.)
func TestRerunClearsWrittenMap(t *testing.T) {
	const seed = 99
	b := refprog.NewBuilder(prog.MinMemSize, seed)
	b.NewBlock()
	b.Load(3, 0, 64) // read word 8 before overwriting it
	b.MovI(1, 64)    //
	b.MovI(2, -1)    //
	b.Store(1, 2, 0) // clobber word 8
	b.Store(1, 2, 8) // and word 9
	b.Halt()
	p := b.MustBuild()
	want := rng.SplitMix64At(seed, 8)
	for _, be := range []Backend{BackendInterp, BackendNative} {
		m := &Machine{}
		m.SetBackend(be)
		if err := m.Load(p); err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 3; run++ {
			m.Run(Params{}, nil)
			if m.intRegs[3] != want {
				t.Fatalf("%v, run %d: load of a word the previous run stored to = %#x, want pristine %#x",
					be, run, m.intRegs[3], want)
			}
		}
	}
}

// TestLoadStoreWord checks the pair every interpreter memory opcode goes
// through, word by word: pristine loads compute the image, a store marks
// exactly its own word's bit and inserts it once, an overwrite keeps its
// slot, and a marked word reads back from the table. Word 64 + 2^18 shares
// word 64's bit: it still loads pristine, its store inserts it, and both
// words read back and take overwrites apart.
func TestLoadStoreWord(t *testing.T) {
	var tab wordTable
	tab.reset()
	written := new(writtenFilter)
	const seed = 5
	for _, addr := range []uint64{0, 8, 504, 512, 1016} {
		if got, want := loadWord(&tab, written, seed, addr), rng.SplitMix64At(seed, addr/8); got != want {
			t.Fatalf("pristine load at %d = %#x, want %#x", addr, got, want)
		}
	}
	storeWord(&tab, written, 512, 0xabc)
	if written[0] != 0 || written[1] != 1 || written[2] != 0 {
		t.Fatalf("store at byte 512 marked %#x %#x %#x, want word 64 only", written[0], written[1], written[2])
	}
	storeWord(&tab, written, 512, 0xdef)
	if got := loadWord(&tab, written, seed, 512); got != 0xdef || tab.count != 1 {
		t.Fatalf("load after two stores = %#x with %d words inserted, want 0xdef and 1", got, tab.count)
	}
	if got, want := loadWord(&tab, written, seed, 520), rng.SplitMix64At(seed, 65); got != want {
		t.Fatalf("neighbour of a stored word = %#x, want pristine %#x", got, want)
	}

	const alias = 512 + 8*filterBits // word 64 + 2^18
	if got, want := loadWord(&tab, written, seed, alias), rng.SplitMix64At(seed, alias/8); got != want {
		t.Fatalf("load of the word sharing a stored word's bit = %#x, want pristine %#x", got, want)
	}
	storeWord(&tab, written, alias, 0x123)
	if written[1] != 1 || tab.count != 2 {
		t.Fatalf("store to the alias: filter word %#x, %d words inserted; want the shared bit and 2", written[1], tab.count)
	}
	storeWord(&tab, written, 512, 0x456)
	storeWord(&tab, written, alias, 0x789)
	if a, b := loadWord(&tab, written, seed, 512), loadWord(&tab, written, seed, alias); a != 0x456 || b != 0x789 || tab.count != 2 {
		t.Fatalf("after overwriting both: %#x and %#x with %d words inserted, want 0x456, 0x789 and 2", a, b, tab.count)
	}
}

// TestWordTableGrowsAndForgets drives the table alone past several
// doublings within one run — every word must survive each rehash — then
// starts a new run, in which every earlier key is an empty slot: nothing
// is found, and new inserts reuse the slots without a clear.
func TestWordTableGrowsAndForgets(t *testing.T) {
	var tab wordTable
	tab.reset()
	start := len(tab.slots)
	const n = 5000
	for w := uint64(0); w < n; w++ {
		tab.store(w*977, w)
		if tab.headroom() < tableSlack {
			t.Fatalf("after %d inserts: %d slots, headroom %d, want at least %d", tab.count, len(tab.slots), tab.headroom(), tableSlack)
		}
	}
	if len(tab.slots) <= start {
		t.Fatalf("%d inserts left the table at %d slots", n, len(tab.slots))
	}
	for w := uint64(0); w < n; w++ {
		if got := tab.lookup(w * 977).val; got != w {
			t.Fatalf("word %d reads %d after growing to %d slots", w*977, got, len(tab.slots))
		}
	}
	slots := len(tab.slots)
	tab.reset()
	h := -1
	for i, s := range tab.slots {
		if s.key >= tab.epoch {
			t.Fatalf("key %#x is live in a new run (epoch %#x)", s.key, tab.epoch)
		}
		if h < 0 && s.key != 0 {
			h = i
		}
	}
	// A slot the last run filled is empty: a new word homed there takes it.
	w := uint64(2) // no word either run stores otherwise
	for tab.home(w) != uint64(h) {
		w += 977
	}
	if tab.store(w, 1); tab.slots[h].key != tab.epoch|w {
		t.Fatalf("word %d homed at slot %d, which holds a stale key, went elsewhere", w, h)
	}
	for w := uint64(0); w < n; w++ {
		tab.store(w*977+1, ^w)
	}
	if len(tab.slots) != slots {
		t.Fatalf("the same number of words grew the table again: %d slots, was %d", len(tab.slots), slots)
	}
	for w := uint64(0); w < n; w++ {
		if got := tab.lookup(w*977 + 1).val; got != ^w {
			t.Fatalf("second run: word %d reads %#x", w*977+1, got)
		}
	}
}
