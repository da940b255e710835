package pool

import (
	"encoding/binary"
	"math/bits"
	"sync"
)

// seenShards is the shard count of a SeenSet. A power of two so shard
// selection is a mask; 16 shards keep lock contention negligible next to
// the millisecond-scale hash evaluation each share costs anyway.
const seenShards = 16

// SeenSet is a sharded, fixed-capacity set of recently seen share keys,
// used to reject duplicate (job, nonce) submissions before they reach the
// expensive hashing stage. Each shard holds an insertion-ordered ring:
// when a shard is full the oldest key is evicted, so memory is bounded
// regardless of share volume. Keys are 64-bit hashes of (job ID, nonce);
// a hash collision falsely flagging a fresh share as duplicate needs
// ~2^32 live keys by birthday bound — far beyond any retention window
// here — and costs one share, not consensus.
//
// The ring already stores every key, so a shard's index stores none: it
// is an open-addressed table of ring positions, at most half full, probed
// linearly from a multiplicative hash of the key. A key costs its 8 bytes
// in the ring and two 4-byte index entries: 16 bytes.
type SeenSet struct {
	shards [seenShards]seenShard
}

type seenShard struct {
	mu    sync.Mutex
	ring  []uint64 // keys in insertion order
	index []uint32 // ring position + 1 of a held key; 0 is an empty entry
	shift uint     // 64 - log2(len(index)): a key's home entry is key*seenMul >> shift
	n     int      // filled entries in ring
	next  int      // ring index of the oldest entry / next eviction slot
}

// seenMul is the index's multiplicative hash (2^64 / the golden ratio).
// The shard was chosen by the key's low bits; the product's high bits,
// which the home entry takes, depend on all of them.
const seenMul = 0x9E3779B97F4A7C15

// NewSeenSet creates a set holding at most capacity keys in total
// (rounded up to at least one per shard).
func NewSeenSet(capacity int) *SeenSet {
	per := max(capacity/seenShards, 1)
	logSize := uint(bits.Len(uint(2*per - 1))) // the least power of two >= 2*per
	s := &SeenSet{}
	for i := range s.shards {
		s.shards[i] = seenShard{
			ring:  make([]uint64, per),
			index: make([]uint32, 1<<logSize),
			shift: 64 - logSize,
		}
	}
	return s
}

// CheckAndAdd reports whether key was already present, inserting it if
// not. The check and insert are atomic with respect to other callers, so
// two racing submissions of the same share serialize into one fresh and
// one duplicate.
func (s *SeenSet) CheckAndAdd(key uint64) (dup bool) {
	sh := &s.shards[key&(seenShards-1)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, held := sh.find(key)
	if held {
		return true
	}
	if sh.n == len(sh.ring) {
		sh.evict()
		e, _ = sh.find(key) // the eviction may have moved the empty entry
	} else {
		sh.n++
	}
	sh.ring[sh.next] = key
	sh.index[e] = uint32(sh.next + 1)
	sh.next = (sh.next + 1) % len(sh.ring)
	return false
}

// find returns the index entry that holds key, or the empty entry that
// ends its probe sequence (where it would go). The index is at most half
// full, so an empty entry is always reached.
func (sh *seenShard) find(key uint64) (e int, held bool) {
	mask := len(sh.index) - 1
	for e = int(key * seenMul >> sh.shift); ; e = (e + 1) & mask {
		pos := sh.index[e]
		if pos == 0 {
			return e, false
		}
		if sh.ring[pos-1] == key {
			return e, true
		}
	}
}

// evict removes the oldest key, ring[next], from the index by backward
// shift: each later entry of its probe run that may move back into the
// hole does, so every held key stays reachable from its home with no
// tombstone left behind.
func (sh *seenShard) evict() {
	mask := len(sh.index) - 1
	hole, _ := sh.find(sh.ring[sh.next])
	for e := (hole + 1) & mask; sh.index[e] != 0; e = (e + 1) & mask {
		// The entry at e may fill the hole unless its home lies after
		// the hole, cyclically, in (hole, e].
		home := int(sh.ring[sh.index[e]-1] * seenMul >> sh.shift)
		if (e-home)&mask >= (e-hole)&mask {
			sh.index[hole] = sh.index[e]
			hole = e
		}
	}
	sh.index[hole] = 0
}

// Len returns the number of keys currently held.
func (s *SeenSet) Len() int {
	total := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		total += sh.n
		sh.mu.Unlock()
	}
	return total
}

// shareKey hashes a (job ID, nonce) pair to a SeenSet key (FNV-1a).
func shareKey(jobID string, nonce uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(jobID); i++ {
		h ^= uint64(jobID[i])
		h *= prime64
	}
	var nb [8]byte
	binary.LittleEndian.PutUint64(nb[:], nonce)
	for _, b := range nb {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}
