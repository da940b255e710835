package vm

import (
	"math/bits"

	"hashcore/internal/jit"
	"hashcore/internal/rng"
)

// The scratch memory (Machine documents the model): a fixed written filter
// in which word i owns bit i mod filterBits, and a table of the words a run
// stored. This file is both halves and the reset; native code reads and
// writes the same two structures through jit.Frame (the layout below is
// that ABI).

// writtenFilter is the written filter, 32 KiB whatever the image: word i
// owns bit i&63 of filter word (i>>6)&filterMask. An image of up to
// filterBits words (2 MiB) has a bit per word; in a larger one the words
// filterBits apart share a bit.
type writtenFilter [jit.FilterWords]uint64

const (
	filterMask = jit.FilterWords - 1
	filterBits = jit.FilterWords * 64
)

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
// probing stays exact: a probe from a word's home meets the word's key
// or, if this run never stored the word, an empty slot — where a store
// inserts it.
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

// lookup returns the slot a probe from word w's home ends at: w's own if
// this run stored w, else the first empty slot, where w would go.
func (t *wordTable) lookup(w uint64) *tableSlot {
	key, mask := t.epoch|w, uint64(len(t.slots)-1)
	for h := t.home(w); ; h = (h + 1) & mask {
		if s := &t.slots[h]; s.key == key || s.key < t.epoch {
			return s
		}
	}
}

// store writes v as word w: over w's slot, or into the empty slot its
// probe ends at, which inserts w.
func (t *wordTable) store(w, v uint64) {
	s := t.lookup(w)
	if s.key == t.epoch|w {
		s.val = v
		return
	}
	*s = tableSlot{t.epoch | w, v}
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

// resetMemory makes the scratch memory pristine: no word written. That is
// clearing the filter (32 KiB, whatever the image) and a new table epoch.
func (m *Machine) resetMemory() {
	switch {
	case m.written == nil:
		m.written = new(writtenFilter)
	case !m.memClean:
		clear(m.written[:])
	}
	m.memClean = true
	m.table.reset()
}

// loadWord returns the word at the aligned byte address addr of the
// scratch memory: the table's if this run stored to it, else the pristine
// image's, computed — exactly the value a filled image would hold there.
func loadWord(t *wordTable, written *writtenFilter, seed, addr uint64) uint64 {
	if v, ok := pristineWord(written, seed, addr); ok {
		return v
	}
	return t.load(seed, addr>>3)
}

// pristineWord is loadWord's side that nearly every load ends on: the
// pristine word at addr, or false if its filter bit is set, when the table
// must be asked (wordTable.load). It costs the inliner little enough to
// inline where loadWord, with its call into the table, does not — into
// the fast loop, which spells loadWord out as these two steps.
func pristineWord(written *writtenFilter, seed, addr uint64) (uint64, bool) {
	w := addr >> 3
	if written[w>>6&filterMask]&(1<<(w&63)) != 0 {
		return 0, false
	}
	return rng.SplitMix64At(seed, w), true
}

// load returns word w's value: the table's if this run stored w, else —
// the filter bit was set by a word sharing it — the pristine word. It
// stays out of line so that the fast loop's inlined pristineWord has only
// a call here beside it.
//
//go:noinline
func (t *wordTable) load(seed, w uint64) uint64 {
	if s := t.lookup(w); s.key == t.epoch|w {
		return s.val
	}
	return rng.SplitMix64At(seed, w)
}

// storeWord writes v at the aligned byte address addr: it sets the word's
// filter bit and stores the word in the table. Every store reaches the
// table, so there is no cheap side to inline.
func storeWord(t *wordTable, written *writtenFilter, addr, v uint64) {
	w := addr >> 3
	written[w>>6&filterMask] |= 1 << (w & 63)
	t.store(w, v)
}

// FilterBitsSet reports how many bits of the written filter the last run
// set, of how many: a popcount for hashcore dump-widget, off the hash path.
func (m *Machine) FilterBitsSet() (set, of int) {
	if m.written != nil {
		for _, w := range m.written {
			set += bits.OnesCount64(w)
		}
	}
	return set, filterBits
}

// PrepareMemory resets the scratch memory ahead of the run that will use
// it; that run's own reset then finds the filter clean and skips the
// clear. It is a shim kept for the benchmark's decomposed replay, which
// times the reset as a phase of its own: there is no image to fill any
// more and the filter's size does not depend on the image, so both
// arguments are unused — the loaded program's MemSize and MemSeed define
// the image.
func (m *Machine) PrepareMemory(int, uint64) {
	m.resetMemory()
}
