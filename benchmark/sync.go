package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"hashcore"
	"hashcore/internal/blockchain"
	"hashcore/internal/p2p"
	"hashcore/internal/pow"
	"hashcore/internal/telemetry"
)

// syncZeroBits is the chain's difficulty: a block takes four hashes to
// mine on average and one to validate.
const syncZeroBits = 2

// syncInst is a node catching up from nothing: a source node holds a
// pre-mined HashCore-PoW chain and serves it over loopback TCP; every
// repetition a fresh node with a group-commit FileStore connects and must
// reach the source's tip. One hash per block, serially, under the node's
// write lock.
type syncInst struct {
	e        *env
	dir      string
	params   blockchain.Params
	hasher   *hashcore.Hasher
	traced   bool
	registry *telemetry.Registry // traced runs: the latest receiver's node, store and p2p instruments
	source   *blockchain.Node
	srcMgr   *p2p.Manager
	blocks   []blockchain.Block
	timeout  time.Duration // how long one sync may take before it counts as short
}

func syncSetup(e *env, traced bool) (inst instance, err error) {
	si := &syncInst{e: e, traced: traced, params: chainParams(syncZeroBits), timeout: shutdownTimeout}
	defer func() {
		if err != nil {
			si.close()
		}
	}()
	if si.dir, err = os.MkdirTemp(e.tmp, "sync_cold-"); err != nil {
		return nil, err
	}
	var hashReg *telemetry.Registry
	if traced {
		hashReg = telemetry.NewRegistry()
	}
	if si.hasher, err = hashcore.New(hashcore.WithBackend("native"), hashcore.WithTelemetry(hashReg)); err != nil {
		return nil, err
	}
	if si.source, err = blockchain.OpenNode(blockchain.NodeConfig{Params: si.params, Hasher: si.hasher}); err != nil {
		return nil, err
	}
	if err = si.premine(); err != nil {
		return nil, err
	}
	si.srcMgr, err = p2p.StartNetworkCfg(p2p.Config{Node: si.source, ListenAddr: "127.0.0.1:0", MsgRate: -1, Logf: quiet}, "")
	if err != nil {
		return nil, err
	}
	return si, nil
}

// premine extends the source node by size.chainBlocks blocks with
// synthetic timestamps and seeded payloads. Each block takes the lowest
// nonce that meets the target, so the chain depends on the seed alone;
// the sessions try consecutive nonces side by side only to get there
// sooner.
func (si *syncInst) premine() error {
	target, err := pow.CompactToTarget(si.params.GenesisBits)
	if err != nil {
		return err
	}
	sessions := make([]*hashcore.Session, si.e.threads)
	for i := range sessions {
		sessions[i] = si.hasher.NewSession()
		defer sessions[i].Close()
	}
	r := si.e.rng("sync_cold/payloads")
	parent := si.source.GenesisID()
	for height := 1; height <= si.e.size.chainBlocks; height++ {
		payload := make([]byte, 48)
		for i := range payload {
			payload[i] = byte(r.Uint32())
		}
		txs := [][]byte{payload}
		h := blockchain.Header{
			Version:    1,
			PrevHash:   parent,
			MerkleRoot: blockchain.MerkleRoot(txs),
			Time:       si.params.GenesisTime + uint64(height)*si.params.TargetSpacing,
			Bits:       si.params.GenesisBits,
		}
		prefix := h.MiningPrefix()
		found := false
		for base := uint64(0); !found; base += uint64(len(sessions)) {
			digests := make([]hashcore.Digest, len(sessions))
			errs := make([]error, len(sessions))
			var wg sync.WaitGroup
			for i, s := range sessions {
				wg.Add(1)
				go func(i int, s *hashcore.Session) {
					defer wg.Done()
					in := binary.LittleEndian.AppendUint64(append([]byte(nil), prefix...), base+uint64(i))
					digests[i], errs[i] = s.Hash(in)
				}(i, s)
			}
			wg.Wait()
			if err := errors.Join(errs...); err != nil {
				return err
			}
			for i := range digests {
				if pow.Check(digests[i], target) {
					h.Nonce, found = base+uint64(i), true
					break
				}
			}
		}
		b := blockchain.Block{Header: h, Txs: txs}
		if parent, err = si.source.AddBlock(b); err != nil {
			return fmt.Errorf("premined block %d: %w", height, err)
		}
		si.blocks = append(si.blocks, b)
	}
	return nil
}

func (si *syncInst) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	var errs []error
	if si.srcMgr != nil {
		errs = append(errs, si.srcMgr.Close(ctx))
	}
	if si.source != nil {
		errs = append(errs, si.source.Close())
	}
	if si.dir != "" {
		errs = append(errs, os.RemoveAll(si.dir))
	}
	return errors.Join(errs...)
}

// measure repeats the cold sync until d has passed (at least twice). An
// operation is one block fetched, validated and stored; its latency is the
// time from the previous block becoming the tip.
func (si *syncInst) measure(d time.Duration) (*outcome, error) {
	o := &outcome{}
	deadline := time.Now().Add(d)
	var walls []float64
	var lastLog string
	for rep := 0; rep < 2 || time.Now().Before(deadline); rep++ {
		if lastLog != "" {
			os.Remove(lastLog)
		}
		lastLog = filepath.Join(si.dir, fmt.Sprintf("recv-%d.log", rep))
		wall, intervals, height, err := si.syncOnce(lastLog)
		if err != nil {
			return nil, err
		}
		o.attempted += len(si.blocks)
		o.fail(len(si.blocks)-height, "block the syncing node never reached (stopped at height %d)", height)
		o.ops = append(o.ops, float64(height)/wall)
		o.lat = append(o.lat, intervals)
		walls = append(walls, wall)
	}
	o.fact("sync.wall_s", median(walls))

	// What a restart of the last receiver would find.
	ok, rate, err := reopened(lastLog, si.params, si.hasher, si.source.TipID())
	if err != nil {
		return nil, err
	}
	o.attempted++
	if !ok {
		o.fail(1, "reopened block log replays to a different tip")
	}
	o.fact("blockchain.replay_blocks_per_s", rate)
	return o, nil
}

// syncOnce brings a fresh node from genesis to the source's tip and
// returns the wall time from connect to tips equal, the intervals between
// successive tip changes in µs, and the height reached.
func (si *syncInst) syncOnce(logPath string) (wall float64, intervals []float64, height int, err error) {
	if si.traced {
		// One registry per receiver: a manager's byte counters replace
		// those of the manager registered before it.
		si.registry = telemetry.NewRegistry()
	}
	fs, err := blockchain.OpenFileStoreWith(logPath, blockchain.FileStoreOptions{BatchAppends: 64, Metrics: si.registry})
	if err != nil {
		return 0, nil, 0, err
	}
	node, err := blockchain.OpenNode(blockchain.NodeConfig{Params: si.params, Hasher: si.hasher, Store: fs, Metrics: si.registry})
	if err != nil {
		return 0, nil, 0, err
	}
	defer node.Close()
	// Room for every block: a full buffer would drop tip events.
	events, cancel := node.Subscribe(len(si.blocks) + 16)
	defer cancel()
	mgr, err := p2p.StartNetworkCfg(p2p.Config{Node: node, MsgRate: -1, Logf: quiet, Metrics: si.registry}, "")
	if err != nil {
		return 0, nil, 0, err
	}
	want := si.source.TipID()
	timeout := time.After(si.timeout)
	t0 := time.Now()
	mgr.Connect(si.srcMgr.Addr())
	prev := time.Time{}
wait:
	for {
		select {
		case ev := <-events:
			now := time.Now()
			if !prev.IsZero() {
				intervals = append(intervals, float64(now.Sub(prev).Nanoseconds())/1e3)
			}
			prev = now
			if ev.NewTip == want {
				break wait
			}
		case <-timeout:
			break wait
		}
	}
	wall = time.Since(t0).Seconds()
	height = node.Height()
	ctx, stop := context.WithTimeout(context.Background(), shutdownTimeout)
	defer stop()
	if err := mgr.Close(ctx); err != nil {
		return 0, nil, 0, err
	}
	// Closing the node closes the store, which flushes the last batch.
	return wall, intervals, height, node.Close()
}

func (si *syncInst) layers(o *outcome, tr *tracer) (map[string]float64, error) {
	n := min(si.e.size.replayN, len(si.blocks))
	headers := make([][]byte, n)
	for i := range headers {
		headers[i] = si.blocks[i].Header.Marshal()
	}
	layers, mismatches, err := hashBudget(tr, "leela", "native", headers)
	if err != nil {
		return nil, err
	}
	o.attempted += n
	o.fail(mismatches, "decomposed-replay digest differs from Session.Hash")

	node, err := nodeBudget(tr, si.params, si.hasher, si.blocks[:n], si.dir, 64)
	if err != nil {
		return nil, err
	}
	for k, v := range node {
		layers[k] = v
	}
	layers["blockchain.replay_blocks_per_s"] = o.facts["blockchain.replay_blocks_per_s"]

	// In situ: what the receivers' registries counted, per block synced.
	synced := regValue(si.registry, "chain_blocks_accepted_total")
	if synced == 0 {
		return nil, errors.New("traced receivers accepted no blocks")
	}
	layers["blockchain.fsyncs_per_block"] = regValue(si.registry, "chain_store_fsync_seconds") / synced
	layers["p2p.msgs_per_block"] = regValue(si.registry, "p2p_messages_total") / synced
	layers["p2p.bytes_per_block"] = regValue(si.registry, "p2p_net_bytes_total") / synced
	wall := o.facts["sync.wall_s"]
	inBlocks := float64(len(si.blocks)) * layers["blockchain.addblock_us"] / 1e6
	layers["p2p.sync_unattributed_pct"] = 100 * (wall - inBlocks) / wall
	return layers, nil
}
