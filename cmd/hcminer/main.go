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
// Stop with SIGINT/SIGTERM.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"hashcore"
	"hashcore/internal/pool"
	"hashcore/internal/telemetry"
)

func main() {
	poolAddr := flag.String("pool", "127.0.0.1:3333", "pool server address")
	name := flag.String("name", "", "miner name for pool accounting (default server-assigned)")
	workers := flag.Int("workers", runtime.NumCPU(), "mining worker goroutines")
	profileName := flag.String("profile", "leela", "reference workload profile")
	quiet := flag.Bool("quiet", false, "suppress per-share output")
	metricsAddr := flag.String("metrics-addr", "", "debug HTTP listen address: /metrics, /events, /healthz, pprof (empty disables)")
	backendFlag := flag.String("backend", "auto", "widget execution engine: auto, native or interp (HASHCORE_BACKEND also applies)")
	conns := flag.Int("conns", 0, "load-generator mode: open this many subscriber connections and count notifies instead of mining")
	flag.Parse()

	if *conns > 0 {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		if err := runLoadGen(ctx, *poolAddr, *name, *conns); err != nil {
			fmt.Fprintln(os.Stderr, "hcminer:", err)
			os.Exit(1)
		}
		return
	}

	if err := run(*poolAddr, *name, *profileName, *metricsAddr, *backendFlag, *workers, *quiet); err != nil {
		fmt.Fprintln(os.Stderr, "hcminer:", err)
		os.Exit(1)
	}
}

func run(poolAddr, name, profileName, metricsAddr, backendMode string, workers int, quiet bool) error {
	var reg *telemetry.Registry
	if metricsAddr != "" {
		reg = telemetry.NewRegistry()
	}
	h, err := hashcore.New(hashcore.WithProfile(profileName), hashcore.WithTelemetry(reg),
		hashcore.WithBackend(backendMode))
	if err != nil {
		return err
	}
	if metricsAddr != "" {
		dbg, err := telemetry.Serve(metricsAddr, telemetry.NewMux(reg, nil, nil))
		if err != nil {
			return err
		}
		defer dbg.Close()
		fmt.Printf("hcminer: debug server on http://%s (/metrics /healthz /debug/pprof)\n", dbg.Addr())
	}

	cfg := pool.ClientConfig{
		Addr:      poolAddr,
		MinerName: name,
		Agent:     "hcminer/1 " + h.Name(),
		Workers:   workers,
	}
	if !quiet {
		cfg.OnJob = func(j pool.JobNotify) {
			fmt.Printf("hcminer: job %s height %d nonces [%d, %d)\n",
				j.ID, j.Height, j.NonceStart, j.NonceEnd)
		}
		cfg.OnResult = func(r pool.ShareResult) {
			if r.Status.Accepted() {
				fmt.Printf("hcminer: share accepted (job %s nonce %d, %s)\n", r.JobID, r.Nonce, r.Status)
			} else {
				fmt.Printf("hcminer: share rejected: %s (%s)\n", r.Status, r.Reason)
			}
		}
	}

	client, err := pool.Dial(cfg, h)
	if err != nil {
		return err
	}
	fmt.Printf("hcminer: mining %s for pool %s with %d workers\n", h.Name(), poolAddr, workers)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err = client.Run(ctx)
	st := client.Stats()
	fmt.Printf("hcminer: done — %d jobs, %d submitted, %d accepted (%d blocks), %d rejected\n",
		st.Jobs, st.Submitted, st.Accepted, st.Blocks, st.Rejected)
	if err != nil && ctx.Err() == nil {
		return err
	}
	return nil
}
