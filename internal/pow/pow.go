// Package pow provides the Proof-of-Work machinery around a hash
// function: difficulty targets with Bitcoin-style compact encoding, digest
// checking, work accounting, and a parallel nonce-search miner.
//
// The paper's setting (§I) is the standard PoW blockchain: "the header for
// each block can be passed through a hash function such that the resulting
// hash meets some statistically unlikely structural requirement". This
// package supplies that requirement — HashCore (or any baseline) plugs in
// through the Hasher interface.
package pow

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"sync"
	"sync/atomic"
)

// DigestSize is the digest size all Hashers must produce.
const DigestSize = 32

// Hasher is a PoW function: deterministic, collision-resistant, slow on
// purpose. Implementations must be safe for concurrent use.
type Hasher interface {
	// Hash computes the PoW digest of a serialized block header.
	Hash(header []byte) ([DigestSize]byte, error)
	// Name identifies the function in logs and experiment output.
	Name() string
}

// SessionHasher is optionally implemented by hashers that can mint
// cheaper single-goroutine execution contexts (e.g. hashcore's pooled
// sessions). The miner gives each worker its own session so the hot
// nonce loop skips even the pool round-trip and shares no mutable state
// between cores.
type SessionHasher interface {
	Hasher
	// NewSession returns a Hasher that computes identical digests but is
	// only safe for use by one goroutine at a time.
	NewSession() Hasher
}

// Target is a 256-bit difficulty threshold: a digest meets the target iff,
// read as a big-endian integer, it is numerically <= the target.
type Target [DigestSize]byte

// Check reports whether digest meets the target.
func Check(digest [DigestSize]byte, target Target) bool {
	for i := 0; i < DigestSize; i++ {
		switch {
		case digest[i] < target[i]:
			return true
		case digest[i] > target[i]:
			return false
		}
	}
	return true // equal counts as meeting the target
}

// Big returns the target as a big integer.
func (t Target) Big() *big.Int { return new(big.Int).SetBytes(t[:]) }

// FromBig converts a big integer to a Target, clamping to the
// representable range.
func FromBig(v *big.Int) Target {
	var t Target
	if v.Sign() <= 0 {
		return t
	}
	b := v.Bytes()
	if len(b) > DigestSize {
		for i := range t {
			t[i] = 0xff
		}
		return t
	}
	copy(t[DigestSize-len(b):], b)
	return t
}

// Work returns the expected number of hash evaluations to meet the
// target: 2^256 / (target + 1).
func (t Target) Work() *big.Int {
	num := new(big.Int).Lsh(big.NewInt(1), 256)
	den := new(big.Int).Add(t.Big(), big.NewInt(1))
	return num.Div(num, den)
}

// Compact encoding (Bitcoin "nBits"): an 8-bit exponent and a 23-bit
// mantissa; target = mantissa * 256^(exponent-3).

// ErrBadCompact is returned for malformed compact difficulty encodings.
var ErrBadCompact = errors.New("pow: malformed compact target")

// CompactToTarget expands a compact difficulty encoding.
func CompactToTarget(bits uint32) (Target, error) {
	exponent := bits >> 24
	mantissa := bits & 0x007fffff
	if bits&0x00800000 != 0 {
		return Target{}, fmt.Errorf("%w: sign bit set", ErrBadCompact)
	}
	if exponent > 34 {
		return Target{}, fmt.Errorf("%w: exponent %d overflows 256 bits", ErrBadCompact, exponent)
	}
	v := new(big.Int).SetUint64(uint64(mantissa))
	if exponent <= 3 {
		v.Rsh(v, 8*(3-uint(exponent)))
	} else {
		v.Lsh(v, 8*(uint(exponent)-3))
	}
	if v.BitLen() > 256 {
		return Target{}, fmt.Errorf("%w: target exceeds 256 bits", ErrBadCompact)
	}
	return FromBig(v), nil
}

// TargetToCompact compresses a target to its compact encoding (lossy, as
// in Bitcoin: only the top 23 bits of precision survive).
func TargetToCompact(t Target) uint32 {
	v := t.Big()
	if v.Sign() == 0 {
		return 0
	}
	size := uint32((v.BitLen() + 7) / 8)
	var mantissa uint32
	if size <= 3 {
		mantissa = uint32(v.Uint64() << (8 * (3 - size)))
	} else {
		shifted := new(big.Int).Rsh(v, 8*uint(size-3))
		mantissa = uint32(shifted.Uint64())
	}
	if mantissa&0x00800000 != 0 {
		mantissa >>= 8
		size++
	}
	return size<<24 | mantissa
}

// MainPowLimit is a conveniently easy upper bound on targets (difficulty
// 1): 0xffff << 224, i.e. 16 leading zero bits. Like Bitcoin's pow limit
// it is exactly representable in compact form (0x1f00ffff).
var MainPowLimit = Target{0x00, 0x00, 0xff, 0xff}

// Result is the outcome of a successful nonce search.
type Result struct {
	Nonce    uint64
	Digest   [DigestSize]byte
	Attempts uint64
}

// Miner searches nonces in parallel. The zero value is not usable; use
// NewMiner.
type Miner struct {
	hasher  Hasher
	workers int
}

// NewMiner builds a miner with the given parallelism (workers < 1 means 1).
func NewMiner(h Hasher, workers int) *Miner {
	if workers < 1 {
		workers = 1
	}
	return &Miner{hasher: h, workers: workers}
}

// ErrExhausted is returned when the nonce space bound was exhausted
// without finding a valid digest.
var ErrExhausted = errors.New("pow: nonce space exhausted")

// AttemptBatch is how many attempts a worker reserves from the shared
// counter at once. One atomic add per attempt puts a contended cache
// line on every hash evaluation's critical path; batching amortizes it
// to one atomic operation per AttemptBatch hashes. The value is exported
// so tests (and capacity planning) can reason about the reservation
// granularity.
const AttemptBatch = 64

// Mine searches for a nonce n >= start such that
// Hash(prefix || n_le64) <= target, trying at most maxAttempts nonces
// (0 means unbounded). It returns early with ctx.Err() if the context is
// cancelled.
//
// Each worker owns its header buffer, a private hashing session when the
// hasher provides one (SessionHasher), and a batched reservation against
// the shared attempt counter, so the nonce loop touches no cross-core
// mutable state between reservations. Attempt reservations are claimed
// with a bounded compare-and-swap: the total never exceeds maxAttempts,
// and unused reservations are refunded on exit, so Result.Attempts is
// the exact number of hash evaluations performed.
func (m *Miner) Mine(ctx context.Context, prefix []byte, target Target, start, maxAttempts uint64) (Result, error) {
	var (
		found    atomic.Bool
		attempts atomic.Uint64
		result   Result
		resultMu sync.Mutex
		firstErr error
	)
	var wg sync.WaitGroup
	for w := 0; w < m.workers; w++ {
		wg.Add(1)
		go func(offset uint64) {
			defer wg.Done()
			hasher := m.hasher
			if sh, ok := m.hasher.(SessionHasher); ok {
				hasher = sh.NewSession()
			}
			header := make([]byte, len(prefix)+8)
			copy(header, prefix)
			var quota uint64 // reserved attempts not yet performed
			defer func() {
				if quota > 0 {
					attempts.Add(^(quota - 1)) // refund unused reservations
				}
			}()
			for nonce := start + offset; ; nonce += uint64(m.workers) {
				if found.Load() || ctx.Err() != nil {
					return
				}
				if quota == 0 {
					quota = reserveAttempts(&attempts, maxAttempts)
					if quota == 0 {
						return // attempt budget exhausted
					}
				}
				quota--
				binary.LittleEndian.PutUint64(header[len(prefix):], nonce)
				digest, err := hasher.Hash(header)
				if err != nil {
					resultMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					resultMu.Unlock()
					found.Store(true)
					return
				}
				if Check(digest, target) {
					resultMu.Lock()
					if !result.valid() {
						result = Result{Nonce: nonce, Digest: digest}
					}
					resultMu.Unlock()
					found.Store(true)
					return
				}
			}
		}(uint64(w))
	}
	wg.Wait()

	if firstErr != nil {
		return Result{}, firstErr
	}
	if err := ctx.Err(); err != nil && !result.valid() {
		return Result{}, err
	}
	if !result.valid() {
		return Result{}, ErrExhausted
	}
	result.Attempts = attempts.Load()
	return result, nil
}

// reserveAttempts claims up to AttemptBatch attempts from the shared
// counter. With maxAttempts > 0 the claim is bounded: the counter never
// passes maxAttempts, so the miner as a whole cannot overshoot its
// budget no matter how many workers race here. Returns 0 when the budget
// is exhausted.
func reserveAttempts(attempts *atomic.Uint64, maxAttempts uint64) uint64 {
	if maxAttempts == 0 {
		attempts.Add(AttemptBatch)
		return AttemptBatch
	}
	for {
		cur := attempts.Load()
		if cur >= maxAttempts {
			return 0
		}
		n := uint64(AttemptBatch)
		if rem := maxAttempts - cur; rem < n {
			n = rem
		}
		if attempts.CompareAndSwap(cur, cur+n) {
			return n
		}
	}
}

// valid reports whether the result has been filled in. The zero digest
// cannot meet any real target, so it doubles as the sentinel.
func (r Result) valid() bool { return r.Digest != [DigestSize]byte{} }

// Verify re-derives the digest for (prefix, nonce) and checks it against
// the target — the cheap verification path a blockchain node runs.
func Verify(h Hasher, prefix []byte, nonce uint64, target Target) (bool, error) {
	header := make([]byte, len(prefix)+8)
	copy(header, prefix)
	binary.LittleEndian.PutUint64(header[len(prefix):], nonce)
	digest, err := h.Hash(header)
	if err != nil {
		return false, err
	}
	return Check(digest, target), nil
}
