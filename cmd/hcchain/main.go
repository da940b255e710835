// Command hcchain is a HashCore blockchain node. Standalone it mines a
// toy chain (the original demo); with -listen/-connect it becomes a
// networked daemon: it serves headers and blocks to peers, follows the
// network's heaviest tip through header-first sync, optionally mines on
// top of it, and persists the chain across restarts with -datadir.
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
// Without networking flags the original in-process demo runs (mine
// -blocks blocks, print the chain, exit). With -listen and/or -connect
// the process runs until SIGINT/SIGTERM: it keeps one persistent
// session per -connect address (re-dialing with backoff), accepts
// inbound peers on -listen, announces every tip move, and — when
// -blocks > 0 — mines that many blocks onto the network tip, restarting
// the search whenever a peer's block arrives first. A two-node network
// is therefore just:
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
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"hashcore"
	"hashcore/internal/blockchain"
	"hashcore/internal/experiments"
	"hashcore/internal/p2p"
	"hashcore/internal/pool"
	"hashcore/internal/pow"
	"hashcore/internal/simnet/lab"
	"hashcore/internal/telemetry"
	"hashcore/internal/vm"
)

func main() {
	blocks := flag.Int("blocks", 5, "number of blocks to mine (0 with networking = sync/serve only)")
	profileName := flag.String("profile", "leela", "reference workload profile")
	datadir := flag.String("datadir", "", "chain data directory (empty = in-memory, no persistence)")
	listen := flag.String("listen", "", "p2p listen address (enables networking)")
	connect := flag.String("connect", "", "comma-separated peer addresses to keep sessions with (enables networking)")
	network := flag.String("network", "hashcore", "network name pinned in handshakes")
	zeroBits := flag.Uint("zero-bits", 14, "network difficulty: leading zero bits (networked mode)")
	fsyncBatch := flag.Int("fsync-batch", 0, "group-commit: fsync once per N appends (0 = every append)")
	fsyncInterval := flag.Duration("fsync-interval", 0, "group-commit: flush deadline for a partial batch")
	workers := flag.Int("workers", 0, "mining parallelism (0 = GOMAXPROCS)")
	banThreshold := flag.Int("ban-threshold", 0, "misbehavior score that bans a peer host (0 = default 100, negative disables)")
	banDuration := flag.Duration("ban-duration", 0, "how long a peer ban lasts (0 = default 10m)")
	msgRate := flag.Float64("msg-rate", 0, "per-peer inbound messages/sec before disconnect (0 = default 500, negative disables)")
	simnetScenario := flag.String("simnet", "", "run a network-lab scenario instead of a node (see -simnet list)")
	simnetNodes := flag.Int("simnet-nodes", 0, "cluster size for -simnet (0 = scenario default)")
	metricsAddr := flag.String("metrics-addr", "", "debug HTTP listen address: /metrics, /events, /healthz, pprof (networked mode; empty disables)")
	backendFlag := flag.String("backend", "auto", "widget execution engine: auto, native or interp (HASHCORE_BACKEND also applies)")
	flag.Parse()

	backend, err := vm.ParseBackend(*backendFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hcchain:", err)
		os.Exit(2)
	}

	if *simnetScenario != "" {
		if err := runSimnet(*simnetScenario, *simnetNodes); err != nil {
			fmt.Fprintln(os.Stderr, "hcchain:", err)
			os.Exit(1)
		}
		return
	}

	if *listen == "" && *connect == "" {
		// Original standalone demo, unchanged.
		out, err := experiments.MineDemoAt(context.Background(), *profileName, *blocks, *datadir, vm.Params{}, backend)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hcchain:", err)
			os.Exit(1)
		}
		fmt.Print(out)
		return
	}

	if err := runDaemon(*blocks, *profileName, *datadir, *listen, *connect, *network,
		*zeroBits, *fsyncBatch, *fsyncInterval, *workers,
		*banThreshold, *banDuration, *msgRate, *metricsAddr, *backendFlag); err != nil {
		fmt.Fprintln(os.Stderr, "hcchain:", err)
		os.Exit(1)
	}
}

// runSimnet executes one adversarial-lab scenario ("list" prints the
// catalog) and reports its verdict; a failed scenario is an error so
// the process exits non-zero.
func runSimnet(name string, nodes int) error {
	if name == "list" {
		for _, n := range lab.Scenarios() {
			fmt.Printf("%-16s %s\n", n, lab.Describe(n))
		}
		return nil
	}
	res, err := lab.Run(name, nodes, log.Printf)
	if err != nil {
		return err
	}
	status := "PASS"
	if !res.OK {
		status = "FAIL"
	}
	fmt.Printf("simnet %s: %s (%d nodes, %s): %s\n",
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

func runDaemon(blocks int, profileName, datadir, listen, connect, network string,
	zeroBits uint, fsyncBatch int, fsyncInterval time.Duration, workers int,
	banThreshold int, banDuration time.Duration, msgRate float64, metricsAddr, backendMode string) error {
	// One registry and journal feed every layer; the debug server (when
	// enabled) exposes them at /metrics and /events.
	var reg *telemetry.Registry
	var journal *telemetry.Journal
	if metricsAddr != "" {
		reg = telemetry.NewRegistry()
		journal = telemetry.NewJournal(1024)
	}
	h, err := hashcore.New(hashcore.WithProfile(profileName), hashcore.WithTelemetry(reg),
		hashcore.WithJournal(journal), hashcore.WithBackend(backendMode))
	if err != nil {
		return err
	}
	params := blockchain.DefaultParams()
	params.GenesisBits = pow.TargetToCompact(pow.Target(hashcore.TargetWithZeroBits(zeroBits)))

	store, fs, err := openStore(datadir, fsyncBatch, fsyncInterval, reg)
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
	if metricsAddr != "" {
		dbg, err := telemetry.Serve(metricsAddr, telemetry.NewMux(reg, journal, node.Err))
		if err != nil {
			return fmt.Errorf("metrics server: %w", err)
		}
		defer dbg.Close()
		log.Printf("hcchain: debug server on http://%s (/metrics /events /healthz /debug/pprof)", dbg.Addr())
	}
	if fs != nil {
		if fs.RecoveredTruncation() {
			log.Printf("hcchain: block log had a damaged tail record (crash mid-append?); dropped it")
		}
		tip := node.TipID()
		log.Printf("hcchain: chain at %s: height %d, tip %x…, %d blocks replayed",
			datadir, node.Height(), tip[:8], node.Replayed())
	}

	mgr, err := p2p.New(p2p.Config{
		Node:         node,
		Network:      network,
		Agent:        "hcchain/1",
		ListenAddr:   listen,
		BanThreshold: banThreshold,
		BanDuration:  banDuration,
		MsgRate:      msgRate,
		Metrics:      reg,
		Journal:      journal,
	})
	if err != nil {
		return err
	}
	if err := mgr.Start(); err != nil {
		return err
	}
	for _, addr := range strings.Split(connect, ",") {
		if addr = strings.TrimSpace(addr); addr != "" {
			mgr.Connect(addr)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	mineDone := make(chan struct{})
	if blocks > 0 {
		go func() {
			defer close(mineDone)
			mineLoop(ctx, node, h, blocks, network, workers)
		}()
	} else {
		close(mineDone)
	}

	// Narrate tip movement until shutdown.
	events, cancel := node.Subscribe(16)
	defer cancel()
	for {
		select {
		case <-ctx.Done():
			log.Printf("hcchain: shutting down")
			closeCtx, closeCancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer closeCancel()
			if err := mgr.Close(closeCtx); err != nil {
				return fmt.Errorf("p2p close: %w", err)
			}
			<-mineDone
			tip := node.TipID()
			fmt.Printf("hcchain: done — height %d, tip %x…, %d peers at exit\n",
				node.Height(), tip[:8], mgr.PeerCount())
			return nil
		case ev := <-events:
			kind := "tip"
			if ev.Reorg {
				kind = "REORG"
			}
			log.Printf("hcchain: %s -> %x… height %d", kind, ev.NewTip[:8], ev.Height)
		}
	}
}

// mineLoop mines n blocks onto the node's best tip, re-templating
// whenever the tip moves underneath the search (a peer's block won the
// race). Templates and submissions reuse the pool's chain source so
// mined blocks carry a proper coinbase commitment.
func mineLoop(ctx context.Context, node *blockchain.Node, h *hashcore.Hasher, n int, tag string, workers int) {
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
			log.Printf("hcchain: template: %v", err)
			return
		}
		target, err := pow.CompactToTarget(header.Bits)
		if err != nil {
			log.Printf("hcchain: bad bits: %v", err)
			return
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
			log.Printf("hcchain: mined block rejected: %v", err)
			continue
		}
		mined++
		log.Printf("hcchain: mined block %d/%d at height %d (nonce %d, %d attempts)",
			mined, n, height, res.Nonce, res.Attempts)
	}
}
