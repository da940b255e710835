// Package gate defines the hash gate abstraction from the HashCore paper.
//
// A hash gate is a conventional collision-resistant hash function (CRHF)
// used at the entry and exit of the HashCore pipeline (Figure 1 of the
// paper): the first gate turns an arbitrary input into the 256-bit hash
// seed; the second gate compresses seed||widget-output into the final
// digest. Theorem 1 reduces HashCore's collision resistance to the gate's,
// so the gate is the only cryptographic primitive in the system.
package gate

import "crypto/sha256"

// SeedSize is the hash gate output size in bytes (256 bits), matching the
// paper's assumption that "each hash gate produces a 256-bit output".
const SeedSize = 32

// Gate is a hash gate: a function from arbitrary bit-strings to fixed-size
// digests. Implementations must be deterministic and stateless.
type Gate interface {
	// Sum returns the gate digest of msg.
	Sum(msg []byte) [SeedSize]byte
	// Name identifies the gate (used in CLI output and experiment logs).
	Name() string
}

// SHA256 is the production hash gate, backed by the standard library's
// assembly-optimized crypto/sha256. The zero value is ready to use.
type SHA256 struct{}

var _ Gate = SHA256{}

// Sum returns SHA-256(msg).
func (SHA256) Sum(msg []byte) [SeedSize]byte { return sha256.Sum256(msg) }

// Name returns "sha256".
func (SHA256) Name() string { return "sha256" }
