package pool

import (
	"math/rand/v2"
	"runtime"
	"testing"
	"unsafe"
)

func TestSeenSetCheckAndAdd(t *testing.T) {
	s := NewSeenSet(1024)
	if s.CheckAndAdd(42) {
		t.Fatal("fresh key reported as duplicate")
	}
	if !s.CheckAndAdd(42) {
		t.Fatal("repeated key reported as fresh")
	}
	if got := s.Len(); got != 1 {
		t.Fatalf("Len = %d, want 1", got)
	}
}

func TestSeenSetEvictsOldest(t *testing.T) {
	// Capacity 16 with 16 shards → one slot per shard. Keys 0 and 16 land
	// in shard 0 (key & 15), so inserting 16 must evict 0.
	s := NewSeenSet(16)
	if s.CheckAndAdd(0) {
		t.Fatal("fresh key 0 reported duplicate")
	}
	if s.CheckAndAdd(16) {
		t.Fatal("fresh key 16 reported duplicate")
	}
	if s.CheckAndAdd(0) {
		t.Fatal("key 0 should have been evicted by key 16")
	}
	if !s.CheckAndAdd(0) {
		t.Fatal("key 0 reinserted but not found")
	}
}

func TestSeenSetBoundedMemory(t *testing.T) {
	const capacity = 256
	s := NewSeenSet(capacity)
	for k := uint64(0); k < 100_000; k++ {
		s.CheckAndAdd(k)
	}
	if got := s.Len(); got > capacity {
		t.Fatalf("Len = %d exceeds capacity %d", got, capacity)
	}
}

func TestSeenSetConcurrent(t *testing.T) {
	s := NewSeenSet(1 << 12)
	const workers = 8
	done := make(chan int, workers)
	// All workers race to insert the same key space; each key must be
	// claimed by exactly one worker.
	for w := 0; w < workers; w++ {
		go func() {
			fresh := 0
			for k := uint64(0); k < 512; k++ {
				if !s.CheckAndAdd(k) {
					fresh++
				}
			}
			done <- fresh
		}()
	}
	total := 0
	for w := 0; w < workers; w++ {
		total += <-done
	}
	if total != 512 {
		t.Fatalf("claimed keys = %d, want exactly 512", total)
	}
}

func TestShareKeyDistinguishes(t *testing.T) {
	a := shareKey("1", 7)
	if b := shareKey("1", 8); a == b {
		t.Error("nonce change did not change the key")
	}
	if b := shareKey("2", 7); a == b {
		t.Error("job change did not change the key")
	}
	if b := shareKey("1", 7); a != b {
		t.Error("shareKey is not deterministic")
	}
}

// seenModel is the set as it was kept before the index: per shard a Go
// map beside the insertion-ordered ring. The index must give the same
// verdicts.
type seenModel struct {
	shards [seenShards]struct {
		m    map[uint64]struct{}
		ring []uint64
		n    int
		next int
	}
}

func newSeenModel(capacity int) *seenModel {
	s := &seenModel{}
	for i := range s.shards {
		s.shards[i].m = map[uint64]struct{}{}
		s.shards[i].ring = make([]uint64, max(capacity/seenShards, 1))
	}
	return s
}

func (s *seenModel) checkAndAdd(key uint64) bool {
	sh := &s.shards[key&(seenShards-1)]
	if _, ok := sh.m[key]; ok {
		return true
	}
	if sh.n == len(sh.ring) {
		delete(sh.m, sh.ring[sh.next])
	} else {
		sh.n++
	}
	sh.ring[sh.next] = key
	sh.next = (sh.next + 1) % len(sh.ring)
	sh.m[key] = struct{}{}
	return false
}

func (s *seenModel) len() int {
	total := 0
	for i := range s.shards {
		total += s.shards[i].n
	}
	return total
}

// TestSeenSetMatchesReference drives the set and the map-and-ring model
// with the same keys — mostly drawn from a key space a few times the
// capacity, so keys come back both while held and after eviction, and one
// in four a fresh random key — and requires every verdict and every Len
// to agree.
func TestSeenSetMatchesReference(t *testing.T) {
	for _, capacity := range []int{16, 17, 100, 1024} {
		s, model := NewSeenSet(capacity), newSeenModel(capacity)
		rng := rand.New(rand.NewPCG(uint64(capacity), 7))
		space := uint64(3 * capacity)
		for i := 0; i < 400_000; i++ {
			key := rng.Uint64N(space)
			if rng.IntN(4) == 0 {
				key = rng.Uint64()
			}
			got, want := s.CheckAndAdd(key), model.checkAndAdd(key)
			if got != want {
				t.Fatalf("capacity %d, call %d: CheckAndAdd(%#x) = %v, the model says %v", capacity, i, key, got, want)
			}
			if i%1000 == 0 && s.Len() != model.len() {
				t.Fatalf("capacity %d, call %d: Len = %d, the model holds %d", capacity, i, s.Len(), model.len())
			}
		}
		if s.Len() != model.len() {
			t.Fatalf("capacity %d: Len = %d, the model holds %d", capacity, s.Len(), model.len())
		}
	}
}

// TestSeenSetBytesPerKey: the set's heap at the pool's default capacity
// is 16 bytes per key — the ring's key and two index entries — plus the
// shards' fixed headers.
func TestSeenSetBytesPerKey(t *testing.T) {
	const keys = 1 << 16
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := NewSeenSet(keys)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d bytes for %d keys: %.2f B/key", bytes, keys, float64(bytes)/keys)
	if header := uint64(unsafe.Sizeof(SeenSet{})); bytes > 16*keys+2*header {
		t.Errorf("%d bytes for %d keys: more than 16 B/key plus the %d-byte shard headers", bytes, keys, header)
	}
}
