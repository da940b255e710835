package p2p

import (
	"context"
	"testing"
	"time"

	"hashcore/internal/baseline"
	"hashcore/internal/blockchain"
	"hashcore/internal/pow"
	"hashcore/internal/telemetry"
)

// newNode opens an in-memory sha256d node at the default (easy) params.
func newNode(t *testing.T) *blockchain.Node {
	t.Helper()
	n, err := blockchain.OpenNode(blockchain.NodeConfig{
		Params: blockchain.DefaultParams(),
		Hasher: baseline.SHA256d{},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// mineBlocks extends node's best chain by count blocks, tagging each
// coinbase so divergent chains mined on different nodes never collide.
func mineBlocks(t *testing.T, node *blockchain.Node, count int, tag byte) {
	t.Helper()
	miner := pow.NewMiner(baseline.SHA256d{}, 2)
	for i := 0; i < count; i++ {
		parent := node.TipID()
		bits, err := node.NextBits(parent)
		if err != nil {
			t.Fatal(err)
		}
		txs := [][]byte{{tag, byte(i), byte(i >> 8)}}
		h := blockchain.Header{
			Version:    1,
			PrevHash:   parent,
			MerkleRoot: blockchain.MerkleRoot(txs),
			Time:       node.TipHeader().Time + 30,
			Bits:       bits,
		}
		target, err := pow.CompactToTarget(bits)
		if err != nil {
			t.Fatal(err)
		}
		res, err := miner.Mine(context.Background(), h.MiningPrefix(), target, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		h.Nonce = res.Nonce
		if _, err := node.AddBlock(blockchain.Block{Header: h, Txs: txs}); err != nil {
			t.Fatal(err)
		}
	}
}

// newManager starts a listening manager with test-speed settings:
// pages and batches small enough that even short chains exercise the
// paging and windowing paths.
func newManager(t *testing.T, node *blockchain.Node) *Manager {
	return newManagerCfg(t, node, 50*time.Millisecond)
}

// newManagerCfg is newManager with a chosen keepalive period (which
// also sets the 4x idle timeout — tests moving multi-MiB lines need a
// period that comfortably covers one transfer under -race).
func newManagerCfg(t *testing.T, node *blockchain.Node, ping time.Duration) *Manager {
	t.Helper()
	m, err := New(Config{
		Node:           node,
		ListenAddr:     "127.0.0.1:0",
		PingInterval:   ping,
		SyncTimeout:    5 * time.Second,
		headersPerPage: 8,
		blocksPerBatch: 4,
		ReconnectWait:  50 * time.Millisecond,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := m.Close(ctx); err != nil {
			t.Errorf("manager close: %v", err)
		}
	})
	return m
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTwoNodeColdSync grows one node, connects a fresh one over real
// TCP, and expects the fresh node to converge on the identical tip —
// through multiple header pages and body batches (30 blocks against a
// page of 8 and a batch of 4).
func TestTwoNodeColdSync(t *testing.T) {
	source := newNode(t)
	mineBlocks(t, source, 30, 's')
	ms := newManager(t, source)

	fresh := newNode(t)
	mf := newManager(t, fresh)
	mf.Connect(ms.Addr())

	waitFor(t, "cold sync", func() bool { return fresh.TipID() == source.TipID() })
	if fresh.Height() != 30 {
		t.Fatalf("synced height = %d, want 30", fresh.Height())
	}
	if got := mf.PeerCount(); got != 1 {
		t.Fatalf("PeerCount = %d, want 1", got)
	}
	// Bodies arrived intact, not just headers.
	b, ok := fresh.BlockByHash(fresh.TipID())
	if !ok || len(b.Txs) != 1 {
		t.Fatalf("synced tip body missing (ok=%v txs=%d)", ok, len(b.Txs))
	}
}

// TestAnnouncePropagation checks the push path: after two nodes are in
// sync, a newly mined block reaches the peer via inv without any
// polling.
func TestAnnouncePropagation(t *testing.T) {
	a := newNode(t)
	b := newNode(t)
	ma := newManager(t, a)
	mb := newManager(t, b)
	mb.Connect(ma.Addr())
	waitFor(t, "peering", func() bool { return ma.PeerCount() == 1 && mb.PeerCount() == 1 })

	mineBlocks(t, a, 1, 'a')
	waitFor(t, "inv propagation a→b", func() bool { return b.TipID() == a.TipID() })

	// And the reverse direction over the same session.
	mineBlocks(t, b, 1, 'b')
	waitFor(t, "inv propagation b→a", func() bool { return a.TipID() == b.TipID() })
	if a.Height() != 2 {
		t.Fatalf("height = %d, want 2", a.Height())
	}
}

// TestHandshakeRejectsForeignChain pins the admission rule: a peer on a
// different genesis must be refused and contribute no peers.
func TestHandshakeRejectsForeignChain(t *testing.T) {
	a := newNode(t)
	ma := newManager(t, a)

	params := blockchain.DefaultParams()
	params.GenesisTime++ // different genesis id
	foreign, err := blockchain.OpenNode(blockchain.NodeConfig{Params: params, Hasher: baseline.SHA256d{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { foreign.Close() })
	reg := telemetry.NewRegistry()
	mf, err := New(Config{
		Node:          foreign,
		PingInterval:  -1,
		ReconnectWait: 10 * time.Millisecond,
		ReconnectMax:  50 * time.Millisecond,
		Logf:          t.Logf,
		Metrics:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mf.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = mf.Close(ctx)
	})
	mf.Connect(ma.Addr())

	// Wait for two dial attempts to be refused, or for a session that
	// should not exist; no session may be left on either side.
	waitFor(t, "two refused handshakes", func() bool {
		n, _ := reg.Value("p2p_handshake_failures_total")
		return n >= 2 || ma.PeerCount()+mf.PeerCount() > 0
	})
	if got := ma.PeerCount(); got != 0 {
		t.Fatalf("foreign-genesis peer admitted: PeerCount = %d", got)
	}
	if got := mf.PeerCount(); got != 0 {
		t.Fatalf("foreign side kept a session: PeerCount = %d", got)
	}
}

// mineBigBlocks extends node's chain with blocks whose single
// transaction is txBytes of deterministic filler, to drive the serving
// side's per-response byte cap.
func mineBigBlocks(t *testing.T, node *blockchain.Node, count, txBytes int, tag byte) {
	t.Helper()
	miner := pow.NewMiner(baseline.SHA256d{}, 2)
	for i := 0; i < count; i++ {
		parent := node.TipID()
		bits, err := node.NextBits(parent)
		if err != nil {
			t.Fatal(err)
		}
		tx := make([]byte, txBytes)
		for j := range tx {
			tx[j] = byte(j) ^ tag ^ byte(i)
		}
		txs := [][]byte{tx}
		h := blockchain.Header{
			Version:    1,
			PrevHash:   parent,
			MerkleRoot: blockchain.MerkleRoot(txs),
			Time:       node.TipHeader().Time + 30,
			Bits:       bits,
		}
		target, err := pow.CompactToTarget(bits)
		if err != nil {
			t.Fatal(err)
		}
		res, err := miner.Mine(context.Background(), h.MiningPrefix(), target, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		h.Nonce = res.Nonce
		if _, err := node.AddBlock(blockchain.Block{Header: h, Txs: txs}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestColdSyncWithTruncatedBlockResponses forces the server to
// byte-cap its blocks responses (each block is ~1.5 MiB against the
// 4 MiB MaxBlocksBytes cap, with a request batch of 4): the requester
// must requeue the truncated tail and still converge with every body
// intact, rather than silently dropping the un-returned blocks.
func TestColdSyncWithTruncatedBlockResponses(t *testing.T) {
	source := newNode(t)
	const txBytes = 3 << 19 // 1.5 MiB per block; a 4-block batch overflows the cap
	mineBigBlocks(t, source, 6, txBytes, 'T')
	// Multi-MiB lines take real time to encode/transfer under -race;
	// the idle timeout (4x ping) must cover one full transfer.
	ms := newManagerCfg(t, source, 5*time.Second)

	fresh := newNode(t)
	mf := newManagerCfg(t, fresh, 5*time.Second)
	mf.Connect(ms.Addr())

	waitFor(t, "truncated-response sync", func() bool { return fresh.TipID() == source.TipID() })
	if fresh.Height() != 6 {
		t.Fatalf("synced height = %d, want 6", fresh.Height())
	}
	// Every body survived the requeue path.
	cursor := fresh.TipID()
	for i := 0; i < 6; i++ {
		b, ok := fresh.BlockByHash(cursor)
		if !ok || len(b.Txs) != 1 || len(b.Txs[0]) != txBytes {
			t.Fatalf("block %d back from tip: ok=%v, wrong body", i, ok)
		}
		cursor = b.Header.PrevHash
	}
}
