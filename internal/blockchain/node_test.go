package blockchain

import (
	"context"
	"errors"
	"testing"

	"hashcore/internal/baseline"
	"hashcore/internal/pow"
)

// solveHeader grinds the nonce until the header meets its own bits.
func solveHeader(t *testing.T, header Header, txs [][]byte) Block {
	t.Helper()
	target, err := pow.CompactToTarget(header.Bits)
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

// mineOn finds a valid block for the node with the given parent; a
// scratch chain with the same params is used to compute bits when the
// parent is not yet known to the node (for orphan tests).
func mineOn(t *testing.T, bitsOf interface {
	NextBits(Hash) (uint32, error)
}, parentID Hash, tm uint64, txs [][]byte) Block {
	t.Helper()
	bits, err := bitsOf.NextBits(parentID)
	if err != nil {
		t.Fatal(err)
	}
	header := Header{
		Version:    1,
		PrevHash:   parentID,
		MerkleRoot: MerkleRoot(txs),
		Time:       tm,
		Bits:       bits,
	}
	return solveHeader(t, header, txs)
}

func newTestNode(t *testing.T, store Store) *Node {
	t.Helper()
	n, err := OpenNode(NodeConfig{
		Params: DefaultParams(),
		Hasher: baseline.SHA256d{},
		Store:  store,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

func TestNodeGrowthAndAccessors(t *testing.T) {
	n := newTestNode(t, nil)
	tm := DefaultParams().GenesisTime
	parent := n.GenesisID()
	for i := 0; i < 5; i++ {
		tm += 30
		b := mineOn(t, n, parent, tm, [][]byte{{byte(i)}})
		id, err := n.AddBlock(b)
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		parent = id
	}
	if n.Height() != 5 || n.TipID() != parent || n.Len() != 6 {
		t.Errorf("height=%d len=%d", n.Height(), n.Len())
	}
	if _, ok := n.HeaderByID(parent); !ok {
		t.Error("tip header not found by ID")
	}
	if h, ok := n.HeightOf(parent); !ok || h != 5 {
		t.Errorf("HeightOf(tip) = %d, %v", h, ok)
	}
	if n.TotalWork().Sign() <= 0 {
		t.Error("no accumulated work")
	}
}

func TestNodeTemplateSnapshot(t *testing.T) {
	n := newTestNode(t, nil)
	var sawHeight int
	var sawTime uint64
	txs := [][]byte{[]byte("cb")}
	h, height, err := n.Template(0, func(height int, tm uint64) Hash {
		sawHeight, sawTime = height, tm
		return MerkleRoot(txs)
	})
	if err != nil {
		t.Fatal(err)
	}
	if height != 1 || sawHeight != 1 {
		t.Errorf("template height = %d / callback %d, want 1", height, sawHeight)
	}
	if h.PrevHash != n.TipID() {
		t.Error("template does not extend the tip")
	}
	// The genesis carries GenesisTime and now=0 is in the past, so the
	// template must clamp to strictly-after-parent.
	if h.Time != DefaultParams().GenesisTime+1 || sawTime != h.Time {
		t.Errorf("template time = %d (callback saw %d)", h.Time, sawTime)
	}
	if h.MerkleRoot != MerkleRoot(txs) {
		t.Error("merkle callback result not committed")
	}
}

func TestNodeOrphanParkAndConnect(t *testing.T) {
	// Mine a 3-block chain on a scratch chain, then feed it to the node
	// out of order: children first, parent last.
	scratch := newTestChain(t)
	tm := DefaultParams().GenesisTime
	var blocks []Block
	parent := scratch.GenesisID()
	for i := 0; i < 3; i++ {
		tm += 30
		b := mineOn(t, scratch, parent, tm, [][]byte{{byte(i)}})
		id, err := scratch.AddBlock(b)
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b)
		parent = id
	}

	n := newTestNode(t, nil)
	events, cancel := n.Subscribe(8)
	defer cancel()

	for _, b := range []Block{blocks[2], blocks[1]} {
		if _, err := n.AddBlock(b); !errors.Is(err, ErrOrphan) {
			t.Fatalf("out-of-order block: err = %v, want ErrOrphan", err)
		}
		if !errors.Is(ErrOrphan, ErrUnknownParent) {
			t.Fatal("ErrOrphan must wrap ErrUnknownParent")
		}
	}
	if n.OrphanCount() != 2 {
		t.Fatalf("orphan count = %d, want 2", n.OrphanCount())
	}
	// A duplicate orphan must not be parked twice.
	if _, err := n.AddBlock(blocks[1]); !errors.Is(err, ErrOrphan) {
		t.Fatal(err)
	}
	if n.OrphanCount() != 2 {
		t.Fatalf("duplicate orphan inflated the pool to %d", n.OrphanCount())
	}

	// The parent arrives: the whole parked descendancy connects at once.
	if _, err := n.AddBlock(blocks[0]); err != nil {
		t.Fatal(err)
	}
	if n.Height() != 3 {
		t.Errorf("height = %d, want 3 after orphan connection", n.Height())
	}
	if n.OrphanCount() != 0 {
		t.Errorf("orphan count = %d, want 0", n.OrphanCount())
	}
	// One event for the whole connection, at the final height.
	ev := <-events
	if ev.Height != 3 || ev.Reorg {
		t.Errorf("event = %+v, want height 3, no reorg", ev)
	}
}

func TestNodeOrphanPoolBounded(t *testing.T) {
	n, err := OpenNode(NodeConfig{
		Params:     DefaultParams(),
		Hasher:     baseline.SHA256d{},
		MaxOrphans: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	scratch := newTestChain(t)
	tm := DefaultParams().GenesisTime
	for i := 0; i < 10; i++ {
		// Distinct unknown parents: every block is an orphan forever.
		b := mineOn(t, scratch, scratch.GenesisID(), tm+30+uint64(i), [][]byte{{byte(i)}})
		b.Header.PrevHash = Hash{0xee, byte(i)}
		if _, err := n.AddBlock(b); !errors.Is(err, ErrOrphan) {
			t.Fatal(err)
		}
	}
	if n.OrphanCount() != 4 {
		t.Errorf("orphan pool grew to %d, want bound 4", n.OrphanCount())
	}
}

func TestNodeReorgEvent(t *testing.T) {
	n := newTestNode(t, nil)
	events, cancel := n.Subscribe(8)
	defer cancel()
	tm := DefaultParams().GenesisTime

	// Branch A: one block.
	a1 := mineOn(t, n, n.GenesisID(), tm+30, [][]byte{[]byte("a")})
	if _, err := n.AddBlock(a1); err != nil {
		t.Fatal(err)
	}
	ev := <-events
	if ev.Reorg || ev.Height != 1 {
		t.Fatalf("extension event = %+v, want height 1, no reorg", ev)
	}

	// Branch B from genesis: equal work does not displace (first seen
	// wins), so no event.
	scratch := newTestChain(t)
	b1 := mineOn(t, scratch, scratch.GenesisID(), tm+31, [][]byte{[]byte("b")})
	b1ID, err := scratch.AddBlock(b1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddBlock(b1); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-events:
		t.Fatalf("tie produced an event: %+v", ev)
	default:
	}

	// B overtakes: the event must be flagged as a reorg.
	b2 := mineOn(t, scratch, b1ID, tm+62, nil)
	b2ID, err := n.AddBlock(b2)
	if err != nil {
		t.Fatal(err)
	}
	ev = <-events
	if !ev.Reorg {
		t.Errorf("reorg not flagged: %+v", ev)
	}
	if ev.Height != 2 || ev.NewTip != b2ID {
		t.Errorf("reorg event = %+v, want height 2 tip %x", ev, b2ID[:8])
	}
	if ev.OldTip == ev.NewTip {
		t.Error("reorg event old tip == new tip")
	}
}

func TestNodeSubscribeOverflowKeepsNewest(t *testing.T) {
	n := newTestNode(t, nil)
	events, cancel := n.Subscribe(1)
	defer cancel()
	tm := DefaultParams().GenesisTime
	parent := n.GenesisID()
	for i := 0; i < 5; i++ {
		tm += 30
		b := mineOn(t, n, parent, tm, [][]byte{{byte(i)}})
		id, err := n.AddBlock(b)
		if err != nil {
			t.Fatal(err)
		}
		parent = id
	}
	// With buffer 1 and no receiver, only the newest event survives.
	ev := <-events
	if ev.Height != 5 || ev.NewTip != parent {
		t.Errorf("overflowed subscriber saw %+v, want the newest tip (height 5)", ev)
	}
}

func TestNodeHeadersAndLocator(t *testing.T) {
	n := newTestNode(t, nil)
	tm := DefaultParams().GenesisTime
	parent := n.GenesisID()
	var ids []Hash
	for i := 0; i < 10; i++ {
		tm += 30
		b := mineOn(t, n, parent, tm, [][]byte{{byte(i)}})
		id, err := n.AddBlock(b)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		parent = id
	}

	// Empty locator: everything after genesis.
	hs := n.HeadersWithIDs(nil, 0)
	if len(hs) != 10 {
		t.Fatalf("full sync returned %d headers, want 10", len(hs))
	}
	if hs[0].Header.PrevHash != n.GenesisID() || hs[9].Header.PrevHash != ids[8] {
		t.Error("headers not in ascending chain order")
	}

	// Locator anchored at height 4: headers 5..10.
	hs = n.HeadersWithIDs([]Hash{ids[3]}, 0)
	if len(hs) != 6 || hs[0].Header.PrevHash != ids[3] {
		t.Fatalf("locator at height 4: got %d headers", len(hs))
	}

	// Unknown hashes are skipped; max clamps the batch.
	hs = n.HeadersWithIDs([]Hash{{0xff}, ids[5]}, 2)
	if len(hs) != 2 || hs[0].Header.PrevHash != ids[5] {
		t.Fatalf("bounded sync: got %d headers", len(hs))
	}

	// A peer at our exact tip gets nothing.
	if hs := n.HeadersWithIDs(n.Locator(), 0); len(hs) != 0 {
		t.Errorf("up-to-date peer got %d headers", len(hs))
	}

	// The locator spans tip to genesis, denser at the tip.
	loc := n.Locator()
	if len(loc) == 0 || loc[0] != n.TipID() || loc[len(loc)-1] != n.GenesisID() {
		t.Errorf("locator = %d entries, must start at tip and end at genesis", len(loc))
	}

	// A locator rooted in a stale fork anchors at the fork point: a
	// one-block side branch off height 5.
	fork := mineOn(t, n, ids[4], tm+300, [][]byte{[]byte("fork")})
	forkID, err := n.AddBlock(fork)
	if err != nil {
		t.Fatal(err)
	}
	hs = n.HeadersWithIDs([]Hash{forkID, ids[4]}, 0)
	if len(hs) != 5 || hs[0].Header.PrevHash != ids[4] {
		t.Fatalf("fork locator: got %d headers, want 5 from the fork point", len(hs))
	}
}
