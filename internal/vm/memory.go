package vm

import (
	"math/bits"

	"hashcore/internal/rng"
)

// The scratch memory (Machine documents the model): a written map of one
// bit per word of the image, and a table of the words a run stored. This
// file is both halves and the reset; native code reads and writes the same
// two structures through jit.Frame (the layout below is that ABI).

// tableSlot is one entry of the written-word table. key is the run's epoch
// in its top 32 bits and the word index (below 2^25, prog.MaxMemSize/8)
// in its low bits; val is the word.
type tableSlot struct{ key, val uint64 }

// minTableSlots is the smallest table a Machine allocates.
const minTableSlots = 16

// tableSlack is the headroom, in words, the table keeps outside native
// code: one default snapshot segment. Native code cannot grow the table
// and stores at most one new word per instruction it retires, and its
// countdown already ends at the next snapshot, so at the default interval
// the table's headroom never ends a native segment (runNative). A
// variable only so that tests can make a table grow often.
var tableSlack = DefaultSnapshotInterval

// wordTable maps word index → value for the words this run stored: open
// addressing with linear probing, 16-byte slots, home slot
// index·γ >> shift (Fibonacci hashing, γ = rng.SplitMix64Gamma).
//
// Emptying it is O(1): a slot whose key is below epoch (the current epoch
// shifted into the top half) holds a previous run's word and counts as
// empty, so reset only bumps the epoch, and only a wrap of the 32-bit
// epoch clears the slots. Within a run nothing is deleted, so linear
// probing stays exact: a word whose map bit is set is in the table — a
// lookup probes until its key matches — and a word whose bit is clear is
// not, so an insert takes the first empty slot from its home.
//
// The table never holds more than half its slots, and outside native code
// it has room for tableSlack more words: whatever inserts — a Go store, or
// a native segment on its return — grows it back to that (fit: doubling,
// rehashing the live keys). Its capacity is therefore a function of the
// most words a run has written, whichever engine ran, and it is kept
// across runs: about 512 KiB for mcf's ~10,000 words.
type wordTable struct {
	slots []tableSlot // a power of two of them
	shift uint        // 64 - log2(len(slots))
	epoch uint64      // the current run's epoch << 32
	count int         // words inserted this run
}

// reset empties the table for a new run.
func (t *wordTable) reset() {
	t.count = 0
	t.epoch += 1 << 32
	if t.epoch == 0 {
		// The epoch wrapped: every old key would be above the new one and
		// look live.
		clear(t.slots)
		t.epoch = 1 << 32
	}
	t.fit()
}

// home is word w's first slot to probe.
func (t *wordTable) home(w uint64) uint64 { return w * rng.SplitMix64Gamma >> t.shift }

// headroom is how many words may still be inserted before the table is
// half full.
func (t *wordTable) headroom() int { return len(t.slots)/2 - t.count }

// find returns word w's slot; w must be in the table.
func (t *wordTable) find(w uint64) *tableSlot {
	key, mask := t.epoch|w, uint64(len(t.slots)-1)
	for h := t.home(w); ; h = (h + 1) & mask {
		if s := &t.slots[h]; s.key == key {
			return s
		}
	}
}

// insert adds word w, which must not be in the table.
func (t *wordTable) insert(w, v uint64) {
	t.place(t.epoch|w, v)
	t.count++
	t.fit()
}

// place puts a key in the first empty slot from its home.
func (t *wordTable) place(key, v uint64) {
	mask := uint64(len(t.slots) - 1)
	for h := t.home(key & (1<<32 - 1)); ; h = (h + 1) & mask {
		if s := &t.slots[h]; s.key < t.epoch {
			*s = tableSlot{key, v}
			return
		}
	}
}

// fit restores the headroom of tableSlack words: if the table is short of
// it, it is reallocated at the first doubling that has it and this run's
// words are rehashed into the new slots.
func (t *wordTable) fit() {
	n := max(len(t.slots), minTableSlots)
	for n/2-t.count < tableSlack {
		n *= 2
	}
	if n != len(t.slots) {
		t.resize(n)
	}
}

// resize reallocates the table at n slots and rehashes this run's words.
func (t *wordTable) resize(n int) {
	old := t.slots
	t.slots = make([]tableSlot, n)
	t.shift = 64 - uint(bits.TrailingZeros(uint(n)))
	for _, s := range old {
		if s.key >= t.epoch {
			t.place(s.key, s.val)
		}
	}
}

// resetMemory makes the scratch memory a pristine image of size bytes: no
// word written. That is a new table epoch and clearing the written map
// (O(size/64) bytes). The clear covers the previous image's map — the only
// extent a run could have marked — so an image smaller or larger than the
// last one starts clean too; every bit beyond len(written), up to its
// capacity, is always zero, so resizing between images costs nothing.
func (m *Machine) resetMemory(size int) {
	if !m.memClean {
		clear(m.written)
		m.memClean = true
	}
	if n := mapWords(size); cap(m.written) < n {
		m.written = make([]uint64, n)
	} else {
		m.written = m.written[:n]
	}
	m.table.reset()
}

// mapWords is the length of the written map, in uint64s, of a size-byte
// image: one bit per 8-byte word.
func mapWords(size int) int { return (size + 511) / 512 }

// loadWord returns the word at the aligned byte address addr of the
// scratch memory: the table's if this run stored to it, else the pristine
// image's, computed — exactly the value a filled image would hold there.
func loadWord(t *wordTable, written []uint64, seed, addr uint64) uint64 {
	if v, ok := pristineWord(written, seed, addr); ok {
		return v
	}
	return t.load(addr >> 3)
}

// pristineWord is loadWord's side that nearly every load ends on: the
// pristine word at addr, or false if this run stored to it and the table
// has it (wordTable.load). It costs the inliner little enough to inline
// where loadWord, with its call into the table, does not — into the fast
// loop, which spells loadWord out as these two steps.
func pristineWord(written []uint64, seed, addr uint64) (uint64, bool) {
	w := addr >> 3
	if written[w>>6]&(1<<(w&63)) != 0 {
		return 0, false
	}
	return rng.SplitMix64At(seed, w), true
}

// load returns word w's value; w must be in the table. It stays out of
// line so that the fast loop's inlined pristineWord has only a call here
// beside it.
//
//go:noinline
func (t *wordTable) load(w uint64) uint64 { return t.find(w).val }

// storeWord writes v at the aligned byte address addr: the first store to
// a word marks it written and inserts it, later ones overwrite its slot.
// Every store reaches the table, so there is no cheap side to inline.
func storeWord(t *wordTable, written []uint64, addr, v uint64) {
	w := addr >> 3
	bit := uint64(1) << (w & 63)
	if written[w>>6]&bit != 0 {
		t.find(w).val = v
		return
	}
	written[w>>6] |= bit
	t.insert(w, v)
}

// PrepareMemory resets the scratch memory for an image of size bytes ahead
// of the run that will use it; that run's own reset then finds the map
// clean and skips the clear. It is a shim kept for the benchmark's
// decomposed replay, which times the reset as a phase of its own: there
// is no image to fill any more, so the seed argument is unused — the
// loaded program's MemSeed defines the content — and a size other than
// the program's is simply resized by the run.
func (m *Machine) PrepareMemory(size int, _ uint64) {
	m.resetMemory(size)
}
