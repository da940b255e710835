// Command hcminer is a remote pool miner: it subscribes to an hcpoold
// server, mines each assigned nonce window with the HashCore hasher, and
// submits the shares it finds.
//
// Usage:
//
//	hcminer [-pool 127.0.0.1:3333] [-name worker1] [-workers N] [-profile leela]
//	hcminer -conns 5000 [-pool 127.0.0.1:3333]   # load generator, no mining
//
// Run several instances (distinct -name values) against one hcpoold to
// watch the pool's per-miner accounting and hashrate estimates at /stats
// on its debug address (hcpoold -metrics-addr). With -conns N it instead
// becomes a pool load generator: N subscribed connections that drain
// every job broadcast without mining, for exercising fan-out at scale.
// A miner whose pool connection drops re-dials with backoff and
// resubscribes, so it outlives a pool restart. Stop with SIGINT/SIGTERM.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"hashcore"
	"hashcore/internal/pool"
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
		fmt.Fprintln(os.Stderr, "hcminer:", err)
		os.Exit(1)
	}
}

// run mines for the pool — or, with -conns, generates subscriber load —
// until ctx ends, then prints its summary and returns.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hcminer", flag.ContinueOnError)
	poolAddr := fs.String("pool", "127.0.0.1:3333", "pool server address")
	name := fs.String("name", "", "miner name for pool accounting (default server-assigned)")
	workers := fs.Int("workers", runtime.NumCPU(), "mining worker goroutines")
	profileName := fs.String("profile", "leela", "reference workload profile")
	quiet := fs.Bool("quiet", false, "suppress per-share output")
	metricsAddr := fs.String("metrics-addr", "", "debug HTTP listen address: /metrics, /events, /healthz, pprof (empty disables)")
	backendMode := fs.String("backend", "native", "widget execution engine: native (interpreter where unsupported) or interp (HASHCORE_BACKEND also applies)")
	conns := fs.Int("conns", 0, "load-generator mode: open this many subscriber connections and count notifies instead of mining")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *conns > 0 {
		return runLoadGen(ctx, out, *poolAddr, *name, *conns)
	}

	var reg *telemetry.Registry
	if *metricsAddr != "" {
		reg = telemetry.NewRegistry()
	}
	h, err := hashcore.New(hashcore.WithProfile(*profileName), hashcore.WithTelemetry(reg),
		hashcore.WithBackend(*backendMode))
	if err != nil {
		return err
	}
	if *metricsAddr != "" {
		dbg, err := telemetry.Serve(*metricsAddr, telemetry.NewMux(reg, nil, nil))
		if err != nil {
			return err
		}
		defer dbg.Close()
		fmt.Fprintf(out, "hcminer: debug server on http://%s (/metrics /healthz /debug/pprof)\n", dbg.Addr())
	}

	cfg := pool.ClientConfig{
		Addr:      *poolAddr,
		MinerName: *name,
		Agent:     "hcminer/1 " + h.Name(),
		Workers:   *workers,
		Reconnect: true,
		OnDisconnect: func(err error) {
			fmt.Fprintf(out, "hcminer: lost the pool (%v); reconnecting\n", err)
		},
	}
	if !*quiet {
		cfg.OnJob = func(j pool.JobNotify) {
			fmt.Fprintf(out, "hcminer: job %s height %d nonces [%d, %d)\n",
				j.ID, j.Height, j.NonceStart, j.NonceEnd)
		}
		cfg.OnResult = func(r pool.ShareResult) {
			if r.Status.Accepted() {
				fmt.Fprintf(out, "hcminer: share accepted (job %s nonce %d, %s)\n", r.JobID, r.Nonce, r.Status)
			} else {
				fmt.Fprintf(out, "hcminer: share rejected: %s (%s)\n", r.Status, r.Reason)
			}
		}
	}

	client, err := pool.Dial(cfg, h)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "hcminer: mining %s for pool %s with %d workers\n", h.Name(), *poolAddr, *workers)

	err = client.Run(ctx)
	st := client.Stats()
	fmt.Fprintf(out, "hcminer: done — %d jobs, %d submitted, %d accepted (%d blocks), %d rejected\n",
		st.Jobs, st.Submitted, st.Accepted, st.Blocks, st.Rejected)
	if err != nil && ctx.Err() == nil {
		return err
	}
	return nil
}
