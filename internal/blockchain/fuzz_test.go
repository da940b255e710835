package blockchain

import (
	"bytes"
	"testing"
)

// FuzzHeaderRoundTrip: any 84-byte buffer is a valid header encoding
// and must round-trip bit-exactly; any other length must be rejected
// with ErrBadHeader. Headers travel on the pool wire and in block-log
// records, so Marshal/UnmarshalHeader disagreeing on a single byte
// would fork validation.
func FuzzHeaderRoundTrip(f *testing.F) {
	f.Add(make([]byte, HeaderSize))
	f.Add(make([]byte, HeaderSize-1))
	f.Add(make([]byte, HeaderSize+1))
	f.Add([]byte{})
	h := Header{Version: 1, PrevHash: Hash{1}, MerkleRoot: Hash{2}, Time: 3, Bits: 0x1d00ffff, Nonce: 5}
	f.Add(h.Marshal())

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := UnmarshalHeader(data)
		if len(data) != HeaderSize {
			if err == nil {
				t.Fatalf("accepted %d-byte header", len(data))
			}
			return
		}
		if err != nil {
			t.Fatalf("rejected valid-length header: %v", err)
		}
		re := got.Marshal()
		if !bytes.Equal(re, data) {
			t.Fatalf("round trip moved bytes:\n in  %x\n out %x", data, re)
		}
		// And the prefix view must agree with the full serialization.
		if !bytes.Equal(got.MiningPrefix(), data[:HeaderSize-8]) {
			t.Fatal("MiningPrefix disagrees with Marshal")
		}
	})
}

// FuzzBlockRecordRoundTrip: the block-log payload codec must round-trip
// what it wrote and never crash on damaged input — the file store feeds
// it raw disk bytes after a crash.
func FuzzBlockRecordRoundTrip(f *testing.F) {
	b := Block{Header: Header{Version: 1, Bits: 0x1d00ffff}, Txs: [][]byte{[]byte("tx"), {}}}
	f.Add(MarshalBlock(b))
	f.Add([]byte{})
	f.Add(make([]byte, HeaderSize+4))

	f.Fuzz(func(t *testing.T, data []byte) {
		blk, err := UnmarshalBlock(data)
		if err != nil {
			return // rejection is fine; not crashing is the test
		}
		re := MarshalBlock(blk)
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted record did not round-trip:\n in  %x\n out %x", data, re)
		}
	})
}
