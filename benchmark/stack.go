package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"hashcore"
	"hashcore/internal/blockchain"
	"hashcore/internal/p2p"
	"hashcore/internal/pool"
	"hashcore/internal/pow"
	"hashcore/internal/telemetry"
)

// shutdownTimeout bounds every server, manager and sync wait.
const shutdownTimeout = 20 * time.Second

func quiet(string, ...any) {}

// chainParams are the consensus rules every benchmark chain uses: a
// constant difficulty of zeroBits leading zero bits (the retarget interval
// lies beyond any run) and deterministic genesis.
func chainParams(zeroBits uint) blockchain.Params {
	p := blockchain.DefaultParams()
	p.GenesisBits = pow.TargetToCompact(pow.Target(hashcore.TargetWithZeroBits(zeroBits)))
	p.RetargetInterval = 1 << 30
	return p
}

// stack is the pool workloads' system under test, wired as hcpoold wires
// it: a pool.Server on loopback TCP over a ChainSource over a
// blockchain.Node with a FileStore, whose p2p.Manager relays every solved
// block to a second node over loopback TCP. Every share costs one HashCore
// hash, every digest is a share, and one in sixteen solves a block.
type stack struct {
	dir      string
	hasher   *hashcore.Hasher
	node     *blockchain.Node // the pool's node
	peer     *blockchain.Node // the node the blocks are relayed to
	nodeMgr  *p2p.Manager
	peerMgr  *p2p.Manager
	srv      *pool.Server
	clients  []*client
	relay    *relayWatch
	registry *telemetry.Registry // nil unless traced; shared by every layer, as in hcpoold
}

// blockZeroBits makes about one share in sixteen solve a block.
const blockZeroBits = 4

func newStack(e *env, label string, miners int, submitRate float64, traced bool) (st *stack, err error) {
	st = &stack{}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	if traced {
		st.registry = telemetry.NewRegistry()
	}
	if st.dir, err = os.MkdirTemp(e.tmp, label+"-"); err != nil {
		return nil, err
	}
	if st.hasher, err = hashcore.New(hashcore.WithBackend("native"), hashcore.WithTelemetry(st.registry)); err != nil {
		return nil, err
	}
	params := chainParams(blockZeroBits)
	fs, err := blockchain.OpenFileStoreWith(filepath.Join(st.dir, "blocks.log"), blockchain.FileStoreOptions{Metrics: st.registry})
	if err != nil {
		return nil, err
	}
	if st.node, err = blockchain.OpenNode(blockchain.NodeConfig{Params: params, Hasher: st.hasher, Store: fs, Metrics: st.registry}); err != nil {
		return nil, err
	}
	// The peer keeps its own registry out of the way: its counters would
	// double the pool side's under the shared metric names.
	if st.peer, err = blockchain.OpenNode(blockchain.NodeConfig{Params: params, Hasher: st.hasher}); err != nil {
		return nil, err
	}
	st.relay = watchRelay(st.node, st.peer)

	// Peers here are trusted loopback nodes; the per-peer message rate
	// limit would cap block relay at capacity load.
	if st.peerMgr, err = p2p.StartNetworkCfg(p2p.Config{Node: st.peer, ListenAddr: "127.0.0.1:0", MsgRate: -1, Logf: quiet}, ""); err != nil {
		return nil, err
	}
	if st.nodeMgr, err = p2p.StartNetworkCfg(p2p.Config{Node: st.node, MsgRate: -1, Logf: quiet, Metrics: st.registry}, st.peerMgr.Addr()); err != nil {
		return nil, err
	}
	if err := waitFor("p2p session", func() bool { return st.nodeMgr.PeerCount() == 1 && st.peerMgr.PeerCount() == 1 }); err != nil {
		return nil, err
	}

	st.srv, err = pool.NewServer(pool.Config{
		Addr:            "127.0.0.1:0",
		ShareBits:       pow.TargetToCompact(pow.Target(hashcore.TargetWithZeroBits(0))),
		VerifyWorkers:   e.threads,
		RefreshInterval: -1, // job cuts come from solved blocks alone
		// The default 64-message out queue condemns a connection whose
		// writer falls 64 messages behind; on a host that stalls a vCPU
		// for a few hundred ms that drops honest miners mid-run.
		NotifyQueue: 1024,
		SubmitRate:  submitRate,
		Metrics:     st.registry,
		Logf:        quiet,
	}, pool.WrapHasher(st.hasher), pool.NewChainSource(st.node, "bench"))
	if err != nil {
		return nil, err
	}
	if err := st.srv.Start(); err != nil {
		return nil, err
	}

	for i, name := range minerNames(e, label, miners, e.threads) {
		c, err := dialClient(st.srv.Addr(), name, i)
		if err != nil {
			return nil, err
		}
		st.clients = append(st.clients, c)
	}
	// Warm every verification session and the whole block path.
	until := time.Now().Add(e.size.warmup)
	err = each(st.clients, func(_ int, c *client) error { return c.closedLoop(0, e2eWindow, until) })
	if err != nil {
		return nil, err
	}
	for _, c := range st.clients {
		if s := c.take(); s.wrong+s.unanswered > 0 {
			return nil, fmt.Errorf("warm-up: %d wrong verdicts, %d unanswered", s.wrong, s.unanswered)
		}
	}
	st.relay.reset()
	return st, nil
}

// close shuts the whole stack down in dependency order and removes its
// files. It is safe on a partly built stack.
func (st *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	var errs []error
	for _, c := range st.clients {
		c.close()
	}
	if st.srv != nil {
		errs = append(errs, st.srv.Shutdown(ctx))
	}
	for _, m := range []*p2p.Manager{st.nodeMgr, st.peerMgr} {
		if m != nil {
			errs = append(errs, m.Close(ctx))
		}
	}
	if st.relay != nil {
		st.relay.stop()
	}
	for _, n := range []*blockchain.Node{st.node, st.peer} {
		if n != nil {
			errs = append(errs, n.Close())
		}
	}
	if st.dir != "" {
		errs = append(errs, os.RemoveAll(st.dir))
	}
	return errors.Join(errs...)
}

// reopened replays the pool node's block log into a fresh node and
// reports whether it arrives at tip: what a restart would find.
func reopened(path string, params blockchain.Params, h pow.Hasher, tip blockchain.Hash) (ok bool, blocksPerS float64, err error) {
	t0 := time.Now()
	fs, err := blockchain.OpenFileStore(path)
	if err != nil {
		return false, 0, err
	}
	n, err := blockchain.OpenNode(blockchain.NodeConfig{Params: params, Hasher: h, Store: fs})
	if err != nil {
		return false, 0, err
	}
	defer n.Close()
	return n.TipID() == tip, float64(n.Replayed()) / time.Since(t0).Seconds(), nil
}

func waitFor(what string, cond func() bool) error {
	deadline := time.Now().Add(shutdownTimeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// minerNames draws n ≤ shards miner names from the seed such that they
// land on distinct verification shards. The pool routes a miner to shard
// FNV-1a(name) mod workers (pool.minerHash); with only as many miners as
// cores, names drawn blindly would leave shards idle on some seeds and
// make throughput depend on the seed.
func minerNames(e *env, label string, n, shards int) []string {
	r := e.rng(label + "/miners")
	var names []string
	taken := make([]bool, shards)
	for len(names) < n {
		name := fmt.Sprintf("miner-%08x", r.Uint32())
		if shard := fnv64a(name) % uint64(shards); !taken[shard] {
			taken[shard] = true
			names = append(names, name)
		}
	}
	return names
}

// relayWatch timestamps tip events on the pool's node and on the peer, so
// that the time a block takes from one to the other can be read off.
type relayWatch struct {
	mu     sync.Mutex
	atNode map[blockchain.Hash]time.Time
	atPeer map[blockchain.Hash]time.Time
	stops  []func()
	wg     sync.WaitGroup
}

func watchRelay(node, peer *blockchain.Node) *relayWatch {
	rw := &relayWatch{atNode: map[blockchain.Hash]time.Time{}, atPeer: map[blockchain.Hash]time.Time{}}
	for _, side := range []struct {
		n *blockchain.Node
		m map[blockchain.Hash]time.Time
	}{{node, rw.atNode}, {peer, rw.atPeer}} {
		// Room for every block of a run: a full buffer drops events.
		events, cancel := side.n.Subscribe(1 << 14)
		rw.stops = append(rw.stops, cancel)
		rw.wg.Add(1)
		go func() {
			defer rw.wg.Done()
			for ev := range events {
				now := time.Now()
				rw.mu.Lock()
				side.m[ev.NewTip] = now
				rw.mu.Unlock()
			}
		}()
	}
	return rw
}

func (rw *relayWatch) stop() {
	for _, cancel := range rw.stops {
		cancel()
	}
	rw.wg.Wait()
}

func (rw *relayWatch) reset() {
	rw.mu.Lock()
	defer rw.mu.Unlock()
	clear(rw.atNode)
	clear(rw.atPeer)
}

// take returns the block-to-peer latencies in ms seen since the last
// reset and the blocks that were never the peer's tip, and resets. A
// block that reaches the peer before its parent connects from the orphan
// pool without a tip event of its own, so unseen is not yet lost.
func (rw *relayWatch) take() (ms []float64, unseen []blockchain.Hash) {
	rw.mu.Lock()
	defer rw.mu.Unlock()
	for id, t0 := range rw.atNode {
		if t1, ok := rw.atPeer[id]; ok {
			ms = append(ms, float64(t1.Sub(t0).Nanoseconds())/1e6)
		} else {
			unseen = append(unseen, id)
		}
	}
	clear(rw.atNode)
	clear(rw.atPeer)
	return ms, unseen
}
