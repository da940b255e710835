package blockchain

import (
	"context"
	"errors"
	"math/big"
	"testing"
	"testing/quick"

	"hashcore/internal/baseline"
	"hashcore/internal/pow"
)

func TestHeaderMarshalRoundTrip(t *testing.T) {
	h := Header{
		Version:    2,
		PrevHash:   Hash{1, 2, 3},
		MerkleRoot: Hash{4, 5, 6},
		Time:       1234567890,
		Bits:       0x1d00ffff,
		Nonce:      0xdeadbeefcafe,
	}
	data := h.Marshal()
	if len(data) != HeaderSize {
		t.Fatalf("marshaled size = %d, want %d", len(data), HeaderSize)
	}
	got, err := UnmarshalHeader(data)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, h)
	}
	if _, err := UnmarshalHeader(data[:50]); !errors.Is(err, ErrBadHeader) {
		t.Error("short header accepted")
	}
}

func TestHeaderRoundTripQuick(t *testing.T) {
	f := func(version uint32, prev, merkle [32]byte, time uint64, bits uint32, nonce uint64) bool {
		h := Header{version, prev, merkle, time, bits, nonce}
		got, err := UnmarshalHeader(h.Marshal())
		return err == nil && got == h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMiningPrefix(t *testing.T) {
	h := Header{Nonce: 42}
	prefix := h.MiningPrefix()
	if len(prefix) != HeaderSize-8 {
		t.Fatalf("prefix size = %d", len(prefix))
	}
}

func TestMerkleRootProperties(t *testing.T) {
	if MerkleRoot(nil) != (Hash{}) {
		t.Error("empty tx set should have zero root")
	}
	single := MerkleRoot([][]byte{[]byte("tx")})
	if single != sha256d([]byte("tx")) {
		t.Error("single-tx root should be the tx hash")
	}
	a := MerkleRoot([][]byte{[]byte("a"), []byte("b")})
	b := MerkleRoot([][]byte{[]byte("b"), []byte("a")})
	if a == b {
		t.Error("root should depend on tx order")
	}
	odd := MerkleRoot([][]byte{[]byte("a"), []byte("b"), []byte("c")})
	if odd == a {
		t.Error("three-tx root should differ from two-tx root")
	}
}

// mineBlock finds a valid block on top of the given parent.
func mineBlock(t *testing.T, c *Chain, parentID Hash, time uint64, txs [][]byte) Block {
	t.Helper()
	bits, err := c.NextBits(parentID)
	if err != nil {
		t.Fatal(err)
	}
	header := Header{
		Version:    1,
		PrevHash:   parentID,
		MerkleRoot: MerkleRoot(txs),
		Time:       time,
		Bits:       bits,
	}
	target, err := pow.CompactToTarget(bits)
	if err != nil {
		t.Fatal(err)
	}
	miner := pow.NewMiner(baseline.SHA256d{}, 2)
	res, err := miner.Mine(context.Background(), header.MiningPrefix(), target, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	header.Nonce = res.Nonce
	return Block{Header: header, Txs: txs}
}

func newTestChain(t *testing.T) *Chain {
	t.Helper()
	c, err := NewChain(DefaultParams(), baseline.SHA256d{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestChainGrowth(t *testing.T) {
	c := newTestChain(t)
	parent := c.GenesisID()
	tm := DefaultParams().GenesisTime
	for i := 0; i < 10; i++ {
		tm += 30
		b := mineBlock(t, c, parent, tm, [][]byte{[]byte{byte(i)}})
		id, err := c.AddBlock(b)
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		parent = id
	}
	if c.Height() != 10 {
		t.Errorf("height = %d, want 10", c.Height())
	}
	if c.TipID() != parent {
		t.Error("tip is not the last added block")
	}
	if c.TotalWork().Sign() <= 0 {
		t.Error("no accumulated work")
	}
	if c.Len() != 11 {
		t.Errorf("Len = %d, want 11", c.Len())
	}
}

func TestChainValidationRejections(t *testing.T) {
	c := newTestChain(t)
	tm := DefaultParams().GenesisTime + 30
	good := mineBlock(t, c, c.GenesisID(), tm, nil)

	t.Run("unknown parent", func(t *testing.T) {
		b := good
		b.Header.PrevHash = Hash{9, 9, 9}
		if _, err := c.AddBlock(b); !errors.Is(err, ErrUnknownParent) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("wrong bits", func(t *testing.T) {
		b := good
		b.Header.Bits = 0x1c00ffff
		if _, err := c.AddBlock(b); !errors.Is(err, ErrBadBits) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("bad time", func(t *testing.T) {
		b := good
		b.Header.Time = DefaultParams().GenesisTime // not after parent
		if _, err := c.AddBlock(b); !errors.Is(err, ErrBadTime) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("bad merkle", func(t *testing.T) {
		b := good
		b.Txs = [][]byte{[]byte("not committed")}
		if _, err := c.AddBlock(b); !errors.Is(err, ErrBadMerkle) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("bad pow", func(t *testing.T) {
		b := good
		b.Header.Nonce++ // breaks the PoW with overwhelming probability
		if _, err := c.AddBlock(b); !errors.Is(err, ErrBadPoW) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("duplicate", func(t *testing.T) {
		if _, err := c.AddBlock(good); err != nil {
			t.Fatalf("first add: %v", err)
		}
		if _, err := c.AddBlock(good); !errors.Is(err, ErrDuplicate) {
			t.Errorf("err = %v", err)
		}
	})
}

func TestForkChoiceByTotalWork(t *testing.T) {
	c := newTestChain(t)
	tm := DefaultParams().GenesisTime

	// Main chain: two blocks.
	b1 := mineBlock(t, c, c.GenesisID(), tm+30, nil)
	id1, err := c.AddBlock(b1)
	if err != nil {
		t.Fatal(err)
	}
	b2 := mineBlock(t, c, id1, tm+60, nil)
	id2, err := c.AddBlock(b2)
	if err != nil {
		t.Fatal(err)
	}
	if c.TipID() != id2 {
		t.Fatal("tip should be block 2")
	}

	// Fork from genesis: one block does not displace two.
	f1 := mineBlock(t, c, c.GenesisID(), tm+31, [][]byte{[]byte("fork")})
	fid1, err := c.AddBlock(f1)
	if err != nil {
		t.Fatal(err)
	}
	if c.TipID() != id2 {
		t.Fatal("shorter fork displaced the tip")
	}

	// Extend the fork to three blocks: it should win.
	f2 := mineBlock(t, c, fid1, tm+62, nil)
	fid2, err := c.AddBlock(f2)
	if err != nil {
		t.Fatal(err)
	}
	f3 := mineBlock(t, c, fid2, tm+93, nil)
	fid3, err := c.AddBlock(f3)
	if err != nil {
		t.Fatal(err)
	}
	if c.TipID() != fid3 {
		t.Fatal("longer (more-work) fork did not become the tip")
	}
	if h, ok := c.HeightOf(fid3); !ok || h != 3 {
		t.Errorf("fork tip height = %d, %v", h, ok)
	}
}

func TestRetargetAdjustsDifficulty(t *testing.T) {
	params := DefaultParams()
	c, err := NewChain(params, baseline.SHA256d{})
	if err != nil {
		t.Fatal(err)
	}

	// Mine one full interval with blocks coming 4x too fast; the next
	// target must shrink (bits decrease in target value).
	parent := c.GenesisID()
	tm := params.GenesisTime
	for i := 0; i < params.RetargetInterval; i++ {
		tm += params.TargetSpacing / 4
		b := mineBlock(t, c, parent, tm, nil)
		id, err := c.AddBlock(b)
		if err != nil {
			t.Fatal(err)
		}
		parent = id
	}
	gotBits, err := c.NextBits(parent)
	if err != nil {
		t.Fatal(err)
	}
	oldTarget, err := pow.CompactToTarget(params.GenesisBits)
	if err != nil {
		t.Fatal(err)
	}
	newTarget, err := pow.CompactToTarget(gotBits)
	if err != nil {
		t.Fatal(err)
	}
	if newTarget.Big().Cmp(oldTarget.Big()) >= 0 {
		t.Errorf("fast blocks did not tighten the target: %x -> %x",
			oldTarget.Big(), newTarget.Big())
	}
	// The clamp bounds the step to MaxAdjust.
	ratio := new(big.Rat).SetFrac(oldTarget.Big(), newTarget.Big())
	if v, _ := ratio.Float64(); v > float64(params.MaxAdjust)+0.5 {
		t.Errorf("retarget step %v exceeds clamp %d", v, params.MaxAdjust)
	}
}

func TestNextBitsStaysWithinInterval(t *testing.T) {
	c := newTestChain(t)
	bits, err := c.NextBits(c.GenesisID())
	if err != nil {
		t.Fatal(err)
	}
	if bits != DefaultParams().GenesisBits {
		t.Errorf("first block bits = %#x, want genesis bits", bits)
	}
	if _, err := c.NextBits(Hash{1}); !errors.Is(err, ErrUnknownParent) {
		t.Error("NextBits accepted an unknown parent")
	}
}

func TestNewChainValidation(t *testing.T) {
	bad := DefaultParams()
	bad.RetargetInterval = 0
	if _, err := NewChain(bad, baseline.SHA256d{}); err == nil {
		t.Error("invalid params accepted")
	}
	bad = DefaultParams()
	bad.GenesisBits = 0x1d800000 // sign bit
	if _, err := NewChain(bad, baseline.SHA256d{}); err == nil {
		t.Error("invalid genesis bits accepted")
	}
}
