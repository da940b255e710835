// Command hcbench regenerates the paper's tables and figures at full
// scale. Each experiment prints its data to stdout; EXPERIMENTS.md records
// the outputs alongside the paper's claims.
//
// Usage:
//
//	hcbench -run all            # everything (minutes)
//	hcbench -run fig2 -n 1000   # just Figure 2 at the paper's N
//	hcbench -run vm             # hash-pipeline microbenchmark -> BENCH_vm.json
//	hcbench -run pool           # share-verification throughput -> BENCH_pool.json
//	hcbench -run chain          # node validation/reorg/replay -> BENCH_chain.json
//	hcbench -run sync           # p2p cold-sync over TCP -> BENCH_sync.json
//	hcbench -run table1|fig1|fig2|fig3|sizes|noise|genvssel|randomx|baselines|mine|vm|pool|chain|sync
//
// The vm experiment measures the production hashing path (a dedicated
// session, the fused block-batched interpreter loop) and writes a
// machine-readable BENCH_vm.json — hashes/sec, ns/hash, allocs/hash,
// B/hash, plus the generation-vs-execution split (gen_ns, exec_ns,
// gate_ns, retired_per_hash, effective_mips) — so the performance
// trajectory is tracked across PRs and each perf PR can show which half
// of the pipeline it moved. All experiments accept -cpuprofile and
// -memprofile for pprof evidence. The pool experiment does
// the same for the mining-pool server's share-verification pipeline
// (shares/sec through dedupe, session hashing and accounting),
// writing BENCH_pool.json. The chain experiment benchmarks the node
// subsystem — block-validation, fork-reorg and restart-replay
// throughput on both the in-memory and the append-only file store —
// writing BENCH_chain.json. The sync experiment benchmarks the p2p
// layer: cold header-first sync of a premined chain over real TCP into
// mem, file, and group-commit file stores, writing BENCH_sync.json.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"hashcore/internal/experiments"
	"hashcore/internal/perfprox"
	"hashcore/internal/vm"
)

func main() {
	run := flag.String("run", "all", "experiment to run (all, table1, fig1, fig2, fig3, sizes, noise, genvssel, predictors, randomx, baselines, mine, vm, pool, chain, sync, telemetry)")
	n := flag.Int("n", 1000, "widget population size for fig2/fig3/sizes/noise")
	profileName := flag.String("profile", "leela", "reference workload profile")
	seed := flag.Uint64("seed", 2019, "master seed for widget seeds")
	benchN := flag.Int("benchn", 200, "hash evaluations for the vm benchmark")
	benchOut := flag.String("benchout", "BENCH_vm.json", "output path for the vm benchmark JSON")
	backend := flag.String("backend", "auto", "widget execution backend for the vm benchmark headline: auto, native or interp")
	dumpWidget := flag.Bool("dump-widget", false, "disassemble the widget selected by -profile/-seed (architectural and fused streams, the native shared memory routines and per-block code sizes, words written by one run) and exit")
	poolN := flag.Int("pooln", 256, "shares for the pool verification benchmark")
	poolWorkers := flag.Int("poolworkers", 0, "verification workers for the pool benchmark (0 = GOMAXPROCS)")
	poolConns := flag.Int("poolconns", 10000, "subscriber connections for the pool broadcast fan-out scenario")
	poolOut := flag.String("poolout", "BENCH_pool.json", "output path for the pool benchmark JSON")
	chainN := flag.Int("chainn", 512, "blocks for the chain validation/reorg benchmark")
	chainOut := flag.String("chainout", "BENCH_chain.json", "output path for the chain benchmark JSON")
	syncN := flag.Int("syncn", 512, "blocks for the p2p cold-sync benchmark")
	syncOut := flag.String("syncout", "BENCH_sync.json", "output path for the sync benchmark JSON")
	telemetryOut := flag.String("telemetryout", "BENCH_telemetry.json", "output path for the telemetry overhead benchmark JSON")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	flag.Parse()

	if *dumpWidget {
		if err := runDumpWidget(*profileName, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "hcbench: -dump-widget:", err)
			os.Exit(1)
		}
		return
	}

	// Profiling hooks so perf PRs can attach pprof evidence without
	// patching the harness: hcbench -run vm -cpuprofile cpu.pprof.
	var cpuFile *os.File
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hcbench: -cpuprofile:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "hcbench: -cpuprofile:", err)
			os.Exit(1)
		}
		cpuFile = f
	}

	err := dispatch(*run, *n, *profileName, *seed, *benchN, *benchOut, *backend, *poolN, *poolWorkers, *poolConns, *poolOut, *chainN, *chainOut, *syncN, *syncOut, *telemetryOut)

	if cpuFile != nil {
		pprof.StopCPUProfile()
		cpuFile.Close()
	}
	// A profile-write failure must not mask the experiment's own error:
	// report both, exit nonzero on either.
	failed := false
	if *memprofile != "" {
		if ferr := writeMemProfile(*memprofile); ferr != nil {
			fmt.Fprintln(os.Stderr, "hcbench: -memprofile:", ferr)
			failed = true
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hcbench:", err)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

// writeMemProfile writes a heap profile after a GC so the statistics are
// current.
func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}

func dispatch(run string, n int, profileName string, seed uint64, benchN int, benchOut, backend string, poolN, poolWorkers, poolConns int, poolOut string, chainN int, chainOut string, syncN int, syncOut, telemetryOut string) error {
	wants := map[string]bool{}
	for _, name := range strings.Split(run, ",") {
		wants[strings.TrimSpace(name)] = true
	}
	all := wants["all"]

	var pop *experiments.Population
	needPop := all || wants["fig2"] || wants["fig3"] || wants["sizes"] || wants["noise"]
	if needPop {
		fmt.Printf("== widget population: n=%d profile=%s (this simulates every widget cycle-by-cycle) ==\n", n, profileName)
		var err error
		pop, err = experiments.RunPopulation(experiments.Config{
			N: n, ProfileName: profileName, MasterSeed: seed,
		})
		if err != nil {
			return err
		}
		fmt.Printf("population simulated in %s\n\n", pop.Elapsed.Round(1e7))
	}

	if all || wants["table1"] {
		fmt.Println("== Table I: hash seed usage ==")
		var s perfprox.Seed
		for i := range s {
			s[i] = byte(i*7 + 1)
		}
		fmt.Println(experiments.Table1(s))
	}
	if all || wants["fig1"] {
		fmt.Println("== Figure 1: pipeline stage timing ==")
		st, err := experiments.Figure1(profileName, []byte("hcbench"), perfprox.Params{}, vm.Params{})
		if err != nil {
			return err
		}
		fmt.Printf("gate: %s  generate: %s  compile: %s  execute: %s  total: %s\ndigest: %x\n\n",
			st.Gate, st.Generate, st.Compile, st.Execute, st.Total, st.Digest[:8])
	}
	if pop != nil && (all || wants["fig2"]) {
		fmt.Println("==", "Figure 2 ==")
		fmt.Println(experiments.Figure2(pop).Render())
	}
	if pop != nil && (all || wants["fig3"]) {
		fmt.Println("== Figure 3 ==")
		fmt.Println(experiments.Figure3(pop).Render())
	}
	if pop != nil && (all || wants["sizes"]) {
		fmt.Println("== Widget output sizes (paper: 20-38 KB) ==")
		fmt.Println(experiments.OutputSizes(pop).Render())
	}
	if pop != nil && (all || wants["noise"]) {
		fmt.Println("== Branch fraction under positive-only noise (paper §V) ==")
		fmt.Println(experiments.BranchFractions(pop).Render())
	}
	if all || wants["genvssel"] {
		fmt.Println("== §VI-A ablation: generation vs selection ==")
		results, err := experiments.GenVsSel(profileName, []int{16, 64, 256}, 8, vm.Params{})
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderGenVsSel(results))
	}
	if all || wants["predictors"] {
		fmt.Println("== Predictor ablation: widget branch behaviour per predictor family ==")
		results, err := experiments.PredictorAblation(profileName, seed, vm.Params{})
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderPredictorAblation(results))
	}
	if all || wants["randomx"] {
		fmt.Println("== §VI-C ablation: RandomX-lite (uniform generation) IPC ==")
		rep, err := experiments.RandomXPopulation(min(n, 50), seed, vm.Params{})
		if err != nil {
			return err
		}
		fmt.Println(rep.Render())
	}
	if all || wants["baselines"] {
		fmt.Println("== Baseline PoW throughput ==")
		results, err := experiments.BaselineThroughput(profileName, 20, vm.Params{})
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderThroughput(results))
	}
	if all || wants["mine"] {
		fmt.Println("== End-to-end mining demo ==")
		out, err := experiments.MineDemo(context.Background(), profileName, 3, vm.Params{})
		if err != nil {
			return err
		}
		fmt.Println(out)
	}
	if all || wants["vm"] {
		fmt.Println("== Hash pipeline microbenchmark ==")
		if err := runVMBench(profileName, backend, benchN, benchOut); err != nil {
			return err
		}
	}
	if all || wants["pool"] {
		fmt.Println("== Pool share-verification, admission and fan-out throughput ==")
		if err := runPoolBench(profileName, poolN, poolWorkers, poolConns, poolOut); err != nil {
			return err
		}
	}
	if all || wants["chain"] {
		fmt.Println("== Chain validation / reorg / replay throughput ==")
		if err := runChainBench(chainN, chainOut); err != nil {
			return err
		}
	}
	if all || wants["sync"] {
		fmt.Println("== P2P cold-sync throughput (real TCP, header-first) ==")
		if err := runSyncBench(syncN, syncOut); err != nil {
			return err
		}
	}
	if all || wants["telemetry"] {
		fmt.Println("== Telemetry record-path and hash-overhead benchmark ==")
		if err := runTelemetryBench(profileName, benchN, telemetryOut); err != nil {
			return err
		}
	}
	return nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
