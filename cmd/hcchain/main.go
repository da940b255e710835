// Command hcchain is a HashCore blockchain node. It mines onto its own
// chain, persists it across restarts with -datadir, and with
// -listen/-connect joins the network: it serves headers and blocks to
// peers, follows the network's heaviest tip through header-first sync,
// and mines on top of it. Both ways it is the same node (same hasher,
// store, templates and miner); networking only adds peers.
//
// Usage:
//
//	hcchain [-blocks 5] [-profile leela] [-datadir /path/to/dir]
//	hcchain -listen :9444 [-connect host:9444,host2:9444] [-blocks N]
//	        [-zero-bits 14] [-network hashcore] [-datadir dir]
//	        [-fsync-batch N] [-fsync-interval 50ms] [-workers N]
//	        [-ban-threshold 100] [-ban-duration 10m] [-msg-rate 500]
//	hcchain -simnet partition [-simnet-nodes 100]
//
// -simnet runs one scenario from the adversarial network lab (an
// in-process simulated network; see internal/simnet/lab) and exits 0
// on pass: partition, churn, flood, eclipse, orphan-flood,
// handshake-abuse. "-simnet list" prints the catalog.
//
// Without networking flags the node mines -blocks blocks, prints its
// tip and exits; -zero-bits defaults to 8 there, so a run takes
// seconds. With -listen and/or -connect the process runs until
// SIGINT/SIGTERM at the network's difficulty (-zero-bits 14, which
// hcpoold's -block-zero-bits matches): it keeps one persistent session
// per -connect address (re-dialing with backoff), accepts inbound peers
// on -listen, announces every tip move, and — when -blocks > 0 — mines
// that many blocks onto the network tip, restarting the search whenever
// a peer's block arrives first. A two-node network is therefore just:
//
//	hcchain -listen 127.0.0.1:9444 -blocks 10 -datadir ./a
//	hcchain -listen 127.0.0.1:9445 -connect 127.0.0.1:9444 -datadir ./b
//
// -fsync-batch enables the block log's group commit (batch fsync across
// N appends or -fsync-interval, whichever first) — much faster bulk
// sync at the cost of possibly losing the last batch in a crash; the
// surviving log is still a clean prefix of the chain.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"hashcore"
	"hashcore/internal/blockchain"
	"hashcore/internal/p2p"
	"hashcore/internal/pool"
	"hashcore/internal/pow"
	"hashcore/internal/simnet/lab"
	"hashcore/internal/telemetry"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := run(ctx, os.Args[1:], os.Stdout)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hcchain:", err)
		os.Exit(1)
	}
}

// standaloneZeroBits is the difficulty of a run without peers that does
// not set -zero-bits: ~256 hashes a block.
const standaloneZeroBits = 8

// run is the node. Without networking it returns once -blocks blocks
// are mined (or ctx ends); with it, it serves until ctx ends. Mining and
// tip narration both write to out, so a networked run needs an out that
// takes concurrent writes (os.Stdout, an io.Pipe).
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hcchain", flag.ContinueOnError)
	blocks := fs.Int("blocks", 5, "number of blocks to mine (0 with networking = sync/serve only)")
	profileName := fs.String("profile", "leela", "reference workload profile")
	datadir := fs.String("datadir", "", "chain data directory (empty = in-memory, no persistence)")
	listen := fs.String("listen", "", "p2p listen address (enables networking)")
	connect := fs.String("connect", "", "comma-separated peer addresses to keep sessions with (enables networking)")
	network := fs.String("network", "hashcore", "network name pinned in handshakes")
	zeroBits := fs.Uint("zero-bits", 14, fmt.Sprintf("genesis difficulty: leading zero bits (unset without -listen/-connect: %d)", standaloneZeroBits))
	fsyncBatch := fs.Int("fsync-batch", 0, "group-commit: fsync once per N appends (0 = every append)")
	fsyncInterval := fs.Duration("fsync-interval", 0, "group-commit: flush deadline for a partial batch")
	workers := fs.Int("workers", 0, "mining parallelism (0 = GOMAXPROCS)")
	banThreshold := fs.Int("ban-threshold", 0, "misbehavior score that bans a peer host (0 = default 100, negative disables)")
	banDuration := fs.Duration("ban-duration", 0, "how long a peer ban lasts (0 = default 10m)")
	msgRate := fs.Float64("msg-rate", 0, "per-peer inbound messages/sec before disconnect (0 = default 500, negative disables)")
	simnetScenario := fs.String("simnet", "", "run a network-lab scenario instead of a node (see -simnet list)")
	simnetNodes := fs.Int("simnet-nodes", 0, "cluster size for -simnet (0 = scenario default)")
	metricsAddr := fs.String("metrics-addr", "", "debug HTTP listen address: /metrics, /events, /healthz, pprof (empty disables)")
	backendMode := fs.String("backend", "native", "widget execution engine: native (interpreter where unsupported) or interp (HASHCORE_BACKEND also applies)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	networked := *listen != "" || *connect != ""
	bits := *zeroBits
	if !networked {
		bits = standaloneZeroBits
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "zero-bits" {
				bits = *zeroBits
			}
		})
	}

	// One registry and journal feed every layer; the debug server (when
	// enabled) exposes them at /metrics and /events.
	var reg *telemetry.Registry
	var journal *telemetry.Journal
	if *metricsAddr != "" {
		reg = telemetry.NewRegistry()
		journal = telemetry.NewJournal(1024)
	}
	h, err := hashcore.New(hashcore.WithProfile(*profileName), hashcore.WithTelemetry(reg),
		hashcore.WithJournal(journal), hashcore.WithBackend(*backendMode))
	if err != nil {
		return err
	}
	if *simnetScenario != "" {
		return runSimnet(out, *simnetScenario, *simnetNodes)
	}

	params := blockchain.DefaultParams()
	params.GenesisBits = pow.TargetToCompact(pow.Target(hashcore.TargetWithZeroBits(bits)))
	store, fstore, err := openStore(*datadir, *fsyncBatch, *fsyncInterval, reg)
	if err != nil {
		return err
	}
	node, err := blockchain.OpenNode(blockchain.NodeConfig{
		Params:  params,
		Hasher:  h,
		Store:   store,
		Metrics: reg,
		Journal: journal,
	})
	if err != nil {
		return err
	}
	defer node.Close()
	if *metricsAddr != "" {
		dbg, err := telemetry.Serve(*metricsAddr, telemetry.NewMux(reg, journal, node.Err))
		if err != nil {
			return fmt.Errorf("metrics server: %w", err)
		}
		defer dbg.Close()
		fmt.Fprintf(out, "hcchain: debug server on http://%s (/metrics /events /healthz /debug/pprof)\n", dbg.Addr())
	}
	if fstore != nil {
		if fstore.RecoveredTruncation() {
			fmt.Fprintln(out, "hcchain: block log had a damaged tail record (crash mid-append?); dropped it")
		}
		tip := node.TipID()
		fmt.Fprintf(out, "hcchain: chain at %s: height %d, tip %x…, %d blocks replayed\n",
			*datadir, node.Height(), tip[:8], node.Replayed())
	}

	if !networked {
		err := mineLoop(ctx, out, node, h, *blocks, *network, *workers)
		tip := node.TipID()
		fmt.Fprintf(out, "hcchain: done — height %d, tip %x…\n", node.Height(), tip[:8])
		return err
	}

	mgr, err := p2p.StartNetworkCfg(p2p.Config{
		Node:         node,
		Network:      *network,
		Agent:        "hcchain/1",
		ListenAddr:   *listen,
		BanThreshold: *banThreshold,
		BanDuration:  *banDuration,
		MsgRate:      *msgRate,
		Metrics:      reg,
		Journal:      journal,
	}, *connect)
	if err != nil {
		return err
	}

	// Narrate tip movement from before the miner starts until shutdown.
	events, cancel := node.Subscribe(16)
	defer cancel()
	mineDone := make(chan struct{})
	go func() {
		defer close(mineDone)
		if err := mineLoop(ctx, out, node, h, *blocks, *network, *workers); err != nil {
			fmt.Fprintf(out, "hcchain: mining stopped: %v\n", err)
		}
	}()
	for {
		select {
		case <-ctx.Done():
			fmt.Fprintln(out, "hcchain: shutting down")
			closeCtx, closeCancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer closeCancel()
			if err := mgr.Close(closeCtx); err != nil {
				return fmt.Errorf("p2p close: %w", err)
			}
			<-mineDone
			tip := node.TipID()
			fmt.Fprintf(out, "hcchain: done — height %d, tip %x…, %d peers at exit\n",
				node.Height(), tip[:8], mgr.PeerCount())
			return nil
		case ev := <-events:
			kind := "tip"
			if ev.Reorg {
				kind = "REORG"
			}
			fmt.Fprintf(out, "hcchain: %s -> %x… height %d\n", kind, ev.NewTip[:8], ev.Height)
		}
	}
}

// runSimnet executes one adversarial-lab scenario ("list" prints the
// catalog) and reports its verdict; a failed scenario is an error so
// the process exits non-zero.
func runSimnet(out io.Writer, name string, nodes int) error {
	if name == "list" {
		for _, n := range lab.Scenarios() {
			fmt.Fprintf(out, "%-16s %s\n", n, lab.Describe(n))
		}
		return nil
	}
	res, err := lab.Run(name, nodes, func(format string, args ...any) {
		fmt.Fprintf(out, format+"\n", args...)
	})
	if err != nil {
		return err
	}
	status := "PASS"
	if !res.OK {
		status = "FAIL"
	}
	fmt.Fprintf(out, "simnet %s: %s (%d nodes, %s): %s\n",
		res.Name, status, res.Nodes, res.Duration.Round(time.Millisecond), res.Detail)
	if !res.OK {
		return fmt.Errorf("scenario %s failed", res.Name)
	}
	return nil
}

// openStore opens the persistent block log (nil store when datadir is
// empty), honoring the group-commit flags.
func openStore(datadir string, fsyncBatch int, fsyncInterval time.Duration, reg *telemetry.Registry) (blockchain.Store, *blockchain.FileStore, error) {
	if datadir == "" {
		return nil, nil, nil
	}
	if err := os.MkdirAll(datadir, 0o755); err != nil {
		return nil, nil, err
	}
	fs, err := blockchain.OpenFileStoreWith(filepath.Join(datadir, "blocks.log"), blockchain.FileStoreOptions{
		BatchAppends: fsyncBatch,
		BatchDelay:   fsyncInterval,
		Metrics:      reg,
	})
	if err != nil {
		return nil, nil, err
	}
	return fs, fs, nil
}

// mineLoop mines n blocks onto the node's best tip, re-templating
// whenever the tip moves underneath the search (a peer's block won the
// race). Templates and submissions reuse the pool's chain source so
// mined blocks carry a proper coinbase commitment. It returns nil once
// n blocks are mined or ctx ends.
func mineLoop(ctx context.Context, out io.Writer, node *blockchain.Node, h *hashcore.Hasher, n int, tag string, workers int) error {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	src := pool.NewChainSource(node, tag)
	miner := pow.NewMiner(pool.WrapHasher(h), workers)
	events, cancel := node.Subscribe(8)
	defer cancel()
	drain := func() {
		for {
			select {
			case <-events:
			default:
				return
			}
		}
	}

	for mined := 0; mined < n && ctx.Err() == nil; {
		drain() // stale events (often our own last block) must not cancel this round
		header, height, err := src.Template()
		if err != nil {
			return fmt.Errorf("template: %w", err)
		}
		target, err := pow.CompactToTarget(header.Bits)
		if err != nil {
			return fmt.Errorf("bad bits: %w", err)
		}
		mctx, mcancel := context.WithCancel(ctx)
		stopWatch := make(chan struct{})
		go func() {
			select {
			case <-stopWatch:
			case <-events:
				mcancel() // the tip moved; this template is stale
			}
		}()
		res, err := miner.Mine(mctx, header.MiningPrefix(), target, 0, 0)
		close(stopWatch)
		mcancel()
		if err != nil {
			continue // cancelled (tip moved or shutting down); re-template
		}
		header.Nonce = res.Nonce
		if err := src.SubmitBlock(header); err != nil {
			fmt.Fprintf(out, "hcchain: mined block rejected: %v\n", err)
			continue
		}
		mined++
		fmt.Fprintf(out, "hcchain: mined block %d/%d at height %d (nonce %d, %d attempts)\n",
			mined, n, height, res.Nonce, res.Attempts)
	}
	return nil
}
