// Package blockchain is a minimal but complete PoW blockchain substrate:
// serialized block headers, Merkle commitments over transactions,
// difficulty retargeting, header/block validation and fork choice by total
// work. It exists so HashCore can be demonstrated and benchmarked in the
// setting the paper targets — a cryptocurrency consensus layer with
// sub-minute block times — rather than as a bare hash function.
package blockchain

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// HashSize is the size of all chain hashes.
const HashSize = 32

// Hash is a block or Merkle hash.
type Hash = [HashSize]byte

// HeaderSize is the serialized header size in bytes.
const HeaderSize = 4 + HashSize + HashSize + 8 + 4 + 8

// Header is a block header. The PoW input is its serialization; the chain
// identity of a block is the PoW digest of that serialization.
type Header struct {
	Version    uint32
	PrevHash   Hash
	MerkleRoot Hash
	Time       uint64 // unix seconds; the chain never consults a wall clock
	Bits       uint32 // compact difficulty target
	Nonce      uint64
}

// Marshal serializes the header in fixed little-endian layout.
func (h *Header) Marshal() []byte {
	out := make([]byte, 0, HeaderSize)
	out = binary.LittleEndian.AppendUint32(out, h.Version)
	out = append(out, h.PrevHash[:]...)
	out = append(out, h.MerkleRoot[:]...)
	out = binary.LittleEndian.AppendUint64(out, h.Time)
	out = binary.LittleEndian.AppendUint32(out, h.Bits)
	out = binary.LittleEndian.AppendUint64(out, h.Nonce)
	return out
}

// MiningPrefix serializes everything except the nonce, for use with
// pow.Miner (which appends the 8-byte nonce itself).
func (h *Header) MiningPrefix() []byte {
	out := make([]byte, 0, HeaderSize-8)
	out = binary.LittleEndian.AppendUint32(out, h.Version)
	out = append(out, h.PrevHash[:]...)
	out = append(out, h.MerkleRoot[:]...)
	out = binary.LittleEndian.AppendUint64(out, h.Time)
	out = binary.LittleEndian.AppendUint32(out, h.Bits)
	return out
}

// ErrBadHeader is returned when deserializing a malformed header.
var ErrBadHeader = errors.New("blockchain: malformed header")

// UnmarshalHeader parses a serialized header.
func UnmarshalHeader(data []byte) (Header, error) {
	var h Header
	if len(data) != HeaderSize {
		return h, fmt.Errorf("%w: %d bytes, want %d", ErrBadHeader, len(data), HeaderSize)
	}
	h.Version = binary.LittleEndian.Uint32(data)
	copy(h.PrevHash[:], data[4:])
	copy(h.MerkleRoot[:], data[36:])
	h.Time = binary.LittleEndian.Uint64(data[68:])
	h.Bits = binary.LittleEndian.Uint32(data[76:])
	h.Nonce = binary.LittleEndian.Uint64(data[80:])
	return h, nil
}

// MerkleRoot computes the Bitcoin-style Merkle root of the transactions:
// leaves are SHA-256d of each transaction, interior nodes are SHA-256d of
// the concatenated children, and an odd node is paired with itself. An
// empty set has a zero root.
func MerkleRoot(txs [][]byte) Hash {
	if len(txs) == 0 {
		return Hash{}
	}
	level := make([]Hash, len(txs))
	for i, tx := range txs {
		level[i] = sha256d(tx)
	}
	for len(level) > 1 {
		next := make([]Hash, 0, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			left := level[i]
			right := left
			if i+1 < len(level) {
				right = level[i+1]
			}
			var buf [2 * HashSize]byte
			copy(buf[:], left[:])
			copy(buf[HashSize:], right[:])
			next = append(next, sha256d(buf[:]))
		}
		level = next
	}
	return level[0]
}

func sha256d(data []byte) Hash {
	first := sha256.Sum256(data)
	return sha256.Sum256(first[:])
}
