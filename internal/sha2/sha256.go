// Package sha2 is a from-scratch implementation of SHA-256 (FIPS 180-4)
// together with HMAC-SHA256 (RFC 2104) and PBKDF2 (RFC 2898).
//
// Only the scrypt baseline in internal/baseline uses it, for its HMAC and
// PBKDF2; no digest does. The hash gate (internal/gate) is the standard
// library's crypto/sha256, and this package is outside the consensus set.
package sha2

import "encoding/binary"

// Size is the size of a SHA-256 digest in bytes.
const Size = 32

// BlockSize is the SHA-256 block size in bytes.
const BlockSize = 64

// k holds the SHA-256 round constants: the first 32 bits of the fractional
// parts of the cube roots of the first 64 primes.
var k = [64]uint32{
	0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
	0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
	0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
	0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
	0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
	0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
	0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
	0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
}

// Digest computes the SHA-256 digest of msg in one call.
func Digest(msg []byte) [Size]byte {
	var h Hash
	h.Reset()
	h.Write(msg)
	return h.Sum256()
}

// Hash is an incremental SHA-256 computation. The zero value is NOT ready
// to use; call Reset first (or use New).
type Hash struct {
	h      [8]uint32
	block  [BlockSize]byte
	nBlock int    // bytes buffered in block
	length uint64 // total message bytes written
}

// New returns a ready-to-use SHA-256 state.
func New() *Hash {
	var h Hash
	h.Reset()
	return &h
}

// Reset restores the initial hash state (first 32 bits of the fractional
// parts of the square roots of the first 8 primes).
func (d *Hash) Reset() {
	d.h = [8]uint32{
		0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
		0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
	}
	d.nBlock = 0
	d.length = 0
}

// Write absorbs p into the hash state. It never fails; the error return
// satisfies io.Writer.
func (d *Hash) Write(p []byte) (int, error) {
	n := len(p)
	d.length += uint64(n)
	if d.nBlock > 0 {
		c := copy(d.block[d.nBlock:], p)
		d.nBlock += c
		p = p[c:]
		if d.nBlock == BlockSize {
			d.compress(d.block[:])
			d.nBlock = 0
		}
	}
	for len(p) >= BlockSize {
		d.compress(p[:BlockSize])
		p = p[BlockSize:]
	}
	if len(p) > 0 {
		d.nBlock = copy(d.block[:], p)
	}
	return n, nil
}

// Sum256 returns the digest of all data written so far. It does not modify
// the underlying state, so more data may be written afterwards.
func (d *Hash) Sum256() [Size]byte {
	// Work on a copy so Sum256 is non-destructive.
	c := *d
	var pad [BlockSize + 8]byte
	pad[0] = 0x80
	padLen := BlockSize - int((c.length+9)%BlockSize) + 1
	if padLen == BlockSize+1 {
		padLen = 1
	}
	var lenBytes [8]byte
	binary.BigEndian.PutUint64(lenBytes[:], c.length*8)
	c.Write(pad[:padLen]) //nolint:errcheck // Write never fails
	c.Write(lenBytes[:])  //nolint:errcheck // Write never fails

	var out [Size]byte
	for i, v := range c.h {
		binary.BigEndian.PutUint32(out[i*4:], v)
	}
	return out
}

// Sum appends the current digest to b and returns the result, mirroring the
// hash.Hash interface from the standard library.
func (d *Hash) Sum(b []byte) []byte {
	s := d.Sum256()
	return append(b, s[:]...)
}

// Size returns the digest length in bytes.
func (d *Hash) Size() int { return Size }

// BlockSize returns the hash block size in bytes.
func (d *Hash) BlockSize() int { return BlockSize }

func rotr(x uint32, n uint) uint32 { return (x >> n) | (x << (32 - n)) }

// compress applies the SHA-256 compression function to one 64-byte block.
func (d *Hash) compress(block []byte) {
	var w [64]uint32
	for i := 0; i < 16; i++ {
		w[i] = binary.BigEndian.Uint32(block[i*4:])
	}
	for i := 16; i < 64; i++ {
		s0 := rotr(w[i-15], 7) ^ rotr(w[i-15], 18) ^ (w[i-15] >> 3)
		s1 := rotr(w[i-2], 17) ^ rotr(w[i-2], 19) ^ (w[i-2] >> 10)
		w[i] = w[i-16] + s0 + w[i-7] + s1
	}

	a, b, c, dd, e, f, g, h := d.h[0], d.h[1], d.h[2], d.h[3], d.h[4], d.h[5], d.h[6], d.h[7]
	for i := 0; i < 64; i++ {
		s1 := rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25)
		ch := (e & f) ^ (^e & g)
		t1 := h + s1 + ch + k[i] + w[i]
		s0 := rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22)
		maj := (a & b) ^ (a & c) ^ (b & c)
		t2 := s0 + maj

		h = g
		g = f
		f = e
		e = dd + t1
		dd = c
		c = b
		b = a
		a = t1 + t2
	}

	d.h[0] += a
	d.h[1] += b
	d.h[2] += c
	d.h[3] += dd
	d.h[4] += e
	d.h[5] += f
	d.h[6] += g
	d.h[7] += h
}
