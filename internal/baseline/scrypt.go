package baseline

import (
	"crypto/pbkdf2"
	"crypto/sha256"
	"encoding/binary"
)

// Key derives a dkLen-byte key from password and salt using scrypt
// (RFC 7914) with cost parameters N (CPU/memory, power of two), r (block
// size) and p (parallelization). ROMix, BlockMix and Salsa20/8 are
// implemented here; PBKDF2-HMAC-SHA256 comes from crypto/pbkdf2 and
// crypto/sha256. It is verified against the RFC test vectors.
//
// It panics on invalid parameters; PoW callers fix them at configuration
// time.
func Key(password, salt []byte, n, r, p, dkLen int) []byte {
	if n < 2 || n&(n-1) != 0 {
		panic("baseline: scrypt N must be a power of two > 1")
	}
	if r < 1 || p < 1 || dkLen < 1 {
		panic("baseline: scrypt r, p, dkLen must be >= 1")
	}

	blockBytes := 128 * r
	b := pbkdf2SHA256(password, salt, 1, p*blockBytes)
	for i := 0; i < p; i++ {
		roMix(b[i*blockBytes:(i+1)*blockBytes], n, r)
	}
	return pbkdf2SHA256(password, b, 1, dkLen)
}

// pbkdf2SHA256 derives dkLen bytes from password and salt with c
// iterations of HMAC-SHA256 (RFC 8018). It panics if c < 1, which
// crypto/pbkdf2 would read as 1, and on crypto/pbkdf2's error (dkLen < 1
// or too long).
func pbkdf2SHA256(password, salt []byte, c, dkLen int) []byte {
	if c < 1 {
		panic("baseline: PBKDF2 iteration count must be >= 1")
	}
	dk, err := pbkdf2.Key(sha256.New, string(password), salt, c, dkLen)
	if err != nil {
		panic("baseline: " + err.Error())
	}
	return dk
}

// roMix is scryptROMix: sequential memory-hard mixing of one 128r-byte
// block with an N-entry scratch table.
func roMix(block []byte, n, r int) {
	words := 32 * r // 32-bit words per block
	x := make([]uint32, words)
	for i := range x {
		x[i] = binary.LittleEndian.Uint32(block[i*4:])
	}

	v := make([]uint32, n*words)
	y := make([]uint32, words)
	for i := 0; i < n; i++ {
		copy(v[i*words:], x)
		blockMix(x, y, r)
	}
	for i := 0; i < n; i++ {
		j := int(integerify(x, r) & uint64(n-1))
		vj := v[j*words : (j+1)*words]
		for k := range x {
			x[k] ^= vj[k]
		}
		blockMix(x, y, r)
	}

	for i, w := range x {
		binary.LittleEndian.PutUint32(block[i*4:], w)
	}
}

// blockMix is scryptBlockMix: shuffles 2r 64-byte sub-blocks through the
// Salsa20/8 core. y is scratch space of the same size as x.
func blockMix(x, y []uint32, r int) {
	var t [16]uint32
	copy(t[:], x[(2*r-1)*16:])
	for i := 0; i < 2*r; i++ {
		for k := 0; k < 16; k++ {
			t[k] ^= x[i*16+k]
		}
		salsa8(&t)
		copy(y[i*16:], t[:])
	}
	// Interleave: even sub-blocks first, then odd.
	for i := 0; i < r; i++ {
		copy(x[i*16:], y[2*i*16:2*i*16+16])
	}
	for i := 0; i < r; i++ {
		copy(x[(r+i)*16:], y[(2*i+1)*16:(2*i+1)*16+16])
	}
}

// integerify interprets the first 8 bytes of the last 64-byte sub-block as
// a little-endian integer.
func integerify(x []uint32, r int) uint64 {
	last := x[(2*r-1)*16:]
	return uint64(last[0]) | uint64(last[1])<<32
}

func rotl32(x uint32, n uint) uint32 { return x<<n | x>>(32-n) }

// salsa8 applies the Salsa20/8 core in place.
func salsa8(b *[16]uint32) {
	x := *b
	for round := 0; round < 8; round += 2 {
		// Column round.
		x[4] ^= rotl32(x[0]+x[12], 7)
		x[8] ^= rotl32(x[4]+x[0], 9)
		x[12] ^= rotl32(x[8]+x[4], 13)
		x[0] ^= rotl32(x[12]+x[8], 18)

		x[9] ^= rotl32(x[5]+x[1], 7)
		x[13] ^= rotl32(x[9]+x[5], 9)
		x[1] ^= rotl32(x[13]+x[9], 13)
		x[5] ^= rotl32(x[1]+x[13], 18)

		x[14] ^= rotl32(x[10]+x[6], 7)
		x[2] ^= rotl32(x[14]+x[10], 9)
		x[6] ^= rotl32(x[2]+x[14], 13)
		x[10] ^= rotl32(x[6]+x[2], 18)

		x[3] ^= rotl32(x[15]+x[11], 7)
		x[7] ^= rotl32(x[3]+x[15], 9)
		x[11] ^= rotl32(x[7]+x[3], 13)
		x[15] ^= rotl32(x[11]+x[7], 18)

		// Row round.
		x[1] ^= rotl32(x[0]+x[3], 7)
		x[2] ^= rotl32(x[1]+x[0], 9)
		x[3] ^= rotl32(x[2]+x[1], 13)
		x[0] ^= rotl32(x[3]+x[2], 18)

		x[6] ^= rotl32(x[5]+x[4], 7)
		x[7] ^= rotl32(x[6]+x[5], 9)
		x[4] ^= rotl32(x[7]+x[6], 13)
		x[5] ^= rotl32(x[4]+x[7], 18)

		x[11] ^= rotl32(x[10]+x[9], 7)
		x[8] ^= rotl32(x[11]+x[10], 9)
		x[9] ^= rotl32(x[8]+x[11], 13)
		x[10] ^= rotl32(x[9]+x[8], 18)

		x[12] ^= rotl32(x[15]+x[14], 7)
		x[13] ^= rotl32(x[12]+x[15], 9)
		x[14] ^= rotl32(x[13]+x[12], 13)
		x[15] ^= rotl32(x[14]+x[13], 18)
	}
	for i := range b {
		b[i] += x[i]
	}
}
