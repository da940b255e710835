// Command hcpoold runs a HashCore mining-pool server: it templates jobs
// off an in-process blockchain, fans them out to subscribed miners with
// per-subscriber nonce ranges, verifies submitted shares on a bounded
// pool of hashing sessions, and serves accounting at /stats on its debug
// address, beside /metrics, /events, /healthz and pprof.
//
// Usage:
//
//	hcpoold [-addr 127.0.0.1:3333] [-metrics-addr 127.0.0.1:3334]
//	        [-share-zero-bits 10] [-block-zero-bits 14]
//	        [-profile leela] [-verify-workers N] [-refresh 10s]
//	        [-submit-rate 50] [-submit-burst 100]
//	        [-datadir /path/to/dir]
//	        [-listen :9444] [-connect host:9444] [-network hashcore]
//
// Demo-scale defaults: the block target expects ~16k hash evaluations
// and a share ~1k, so a few hcminer processes on the same machine find
// shares every few seconds. With -datadir the chain is persisted to an
// append-only block log and the daemon resumes its exact tip, height
// and total work across restarts. With -listen/-connect the pool's
// node joins the p2p network: solved blocks propagate to peers, and
// when a peer's block (or a heavier branch) wins, the pool cuts a
// clean job on the network tip within one tip event — pool jobs always
// follow the network. Stop with SIGINT/SIGTERM for a graceful drain.
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
	"syscall"
	"time"

	"hashcore"
	"hashcore/internal/blockchain"
	"hashcore/internal/p2p"
	"hashcore/internal/pool"
	"hashcore/internal/pow"
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
		fmt.Fprintln(os.Stderr, "hcpoold:", err)
		os.Exit(1)
	}
}

// run serves the pool until ctx ends, then drains it and returns.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hcpoold", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:3333", "miner-protocol listen address")
	profileName := fs.String("profile", "leela", "reference workload profile")
	shareZeroBits := fs.Uint("share-zero-bits", 10, "pool share target: leading zero bits (~2^n hashes per share)")
	blockZeroBits := fs.Uint("block-zero-bits", 14, "network block target: leading zero bits")
	verifyWorkers := fs.Int("verify-workers", 0, "share-verification workers (0 = GOMAXPROCS)")
	queueDepth := fs.Int("queue", 256, "submit queue bound (backpressure threshold)")
	submitRate := fs.Float64("submit-rate", 0, "per-miner sustained submissions/sec admitted before pre-check rejection (0 disables)")
	submitBurst := fs.Int("submit-burst", 0, "per-miner submission burst allowance (0 derives from -submit-rate)")
	rangeSize := fs.Uint64("range", pool.DefaultRangeSize, "nonce window per subscriber per job")
	refresh := fs.Duration("refresh", 10*time.Second, "job refresh period (negative disables)")
	name := fs.String("name", "hcpool", "pool name")
	datadir := fs.String("datadir", "", "chain data directory (empty = in-memory, no persistence)")
	listen := fs.String("listen", "", "p2p listen address (joins the block network)")
	connect := fs.String("connect", "", "comma-separated p2p peer addresses to keep sessions with")
	network := fs.String("network", "hashcore", "p2p network name pinned in handshakes")
	metricsAddr := fs.String("metrics-addr", "127.0.0.1:3334", "debug HTTP listen address: /stats, /metrics, /events, /healthz, pprof (empty disables)")
	backendMode := fs.String("backend", "native", "widget execution engine: native (interpreter where unsupported) or interp (HASHCORE_BACKEND also applies)")
	if err := fs.Parse(args); err != nil {
		return err
	}

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

	params := blockchain.DefaultParams()
	params.GenesisBits = pow.TargetToCompact(pow.Target(hashcore.TargetWithZeroBits(*blockZeroBits)))
	var store blockchain.Store
	var fstore *blockchain.FileStore
	if *datadir != "" {
		if err := os.MkdirAll(*datadir, 0o755); err != nil {
			return err
		}
		fstore, err = blockchain.OpenFileStore(filepath.Join(*datadir, "blocks.log"))
		if err != nil {
			return err
		}
		store = fstore
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
	if fstore != nil {
		if fstore.RecoveredTruncation() {
			fmt.Fprintln(out, "hcpoold: block log had a damaged tail record (crash mid-append?); dropped it")
		}
		tip := node.TipID()
		fmt.Fprintf(out, "hcpoold: chain at %s: height %d, tip %x…, %d blocks replayed\n",
			*datadir, node.Height(), tip[:8], node.Replayed())
	}

	// Join the p2p network before the pool starts, so the first job can
	// already be templated off a synced tip.
	var mgr *p2p.Manager
	if *listen != "" || *connect != "" {
		mgr, err = p2p.StartNetworkCfg(p2p.Config{
			Node:       node,
			Network:    *network,
			Agent:      "hcpoold/1",
			ListenAddr: *listen,
			Metrics:    reg,
			Journal:    journal,
		}, *connect)
		if err != nil {
			return err
		}
		if a := mgr.Addr(); a != "" {
			fmt.Fprintf(out, "hcpoold: p2p listening on %s (network %q)\n", a, *network)
		}
	}

	srv, err := pool.NewServer(pool.Config{
		Addr:            *addr,
		PoolName:        *name,
		ShareBits:       pow.TargetToCompact(pow.Target(hashcore.TargetWithZeroBits(*shareZeroBits))),
		RangeSize:       *rangeSize,
		VerifyWorkers:   *verifyWorkers,
		QueueDepth:      *queueDepth,
		SubmitRate:      *submitRate,
		SubmitBurst:     *submitBurst,
		RefreshInterval: *refresh,
		Metrics:         reg,
		Journal:         journal,
	}, pool.WrapHasher(h), pool.NewChainSource(node, *name))
	if err != nil {
		return err
	}
	if *metricsAddr != "" {
		mux := telemetry.NewMux(reg, journal, node.Err)
		mux.Handle("/stats", srv.StatsHandler())
		dbg, err := telemetry.Serve(*metricsAddr, mux)
		if err != nil {
			_ = srv.Shutdown(ctx)
			return fmt.Errorf("metrics server: %w", err)
		}
		defer dbg.Close()
		fmt.Fprintf(out, "hcpoold: debug server on http://%s (/stats /metrics /events /healthz /debug/pprof)\n", dbg.Addr())
	}
	if err := srv.Start(); err != nil {
		_ = srv.Shutdown(ctx)
		return err
	}
	fmt.Fprintf(out, "hcpoold: serving %s on %s\n", h.Name(), srv.Addr())

	<-ctx.Done()
	fmt.Fprintln(out, "hcpoold: shutting down")
	drain, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(drain); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if mgr != nil {
		if err := mgr.Close(drain); err != nil {
			return fmt.Errorf("p2p shutdown: %w", err)
		}
	}
	fmt.Fprintf(out, "hcpoold: done (%d blocks solved, chain height %d)\n", srv.Blocks(), node.Height())
	return nil
}
