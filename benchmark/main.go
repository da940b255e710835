// Command benchmark is the repository's benchmark: six workloads over the
// hash pipeline, the pool's share ingest and node-to-node sync, each
// measured end to end from outside through the layers' public functions,
// plus a separate traced run that yields a per-layer budget. BENCHMARK.json
// at the repository root names the workloads and metrics; README.md here
// says why each exists and what should move what.
//
// One workload, as the driver runs it (the last line printed is the result):
//
//	bash benchmark/run.sh --workload mine_leela --seed 7 --seconds 10 --trace 0
//
// All six workloads into one result file, then compared with another:
//
//	bash benchmark/run.sh -out base.json
//	bash benchmark/run.sh -compare base.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// buildDir is where the benchmark keeps everything it writes: scratch
// stores, trace files and, by default, result files. run.sh builds there
// too, and .gitignore names it.
const buildDir = ".bench_build"

// resultFile is what a full run writes and -compare reads.
type resultFile struct {
	Host      hostStamp          `json:"host"`
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Workloads map[string]*result `json:"workloads"`
}

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload and print its result as the last line; empty runs all six")
		seed    = flag.Uint64("seed", checksumSeed, "seed the workload inputs are generated from")
		seconds = flag.Float64("seconds", 36, "length of the timed windows of one workload")
		trace   = flag.Int("trace", 0, "1 makes the traced run (per-layer metrics, trace-<workload>.json) instead of the end-to-end run")
		out     = flag.String("out", "", "result file of a full run (default "+buildDir+"/result.json)")
		compare = flag.Bool("compare", false, "compare two result files: -compare base.json new.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(2, "usage: -compare base.json new.json")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}

	// The backend is part of each workload's definition.
	os.Unsetenv("HASHCORE_BACKEND")
	threads := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(threads)
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fatal(1, "%v", err)
	}
	tmp, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fatal(1, "%v", err)
	}
	e := &env{seed: *seed, threads: threads, tmp: tmp, size: fullSizes}
	d := time.Duration(*seconds * float64(time.Second))
	code := 0
	if *name != "" {
		code = runOne(e, *name, d, *trace == 1)
	} else {
		code = runAll(e, d, *trace == 1, *out)
	}
	os.RemoveAll(tmp)
	os.Exit(code)
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(code)
}

// runOne is the driver's entry: one workload, and as the last line of
// standard output one JSON object with correct, attempted, failed and the
// metrics, each a value as measured and its unit.
func runOne(e *env, name string, d time.Duration, traced bool) int {
	w, ok := workloadByName(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", name)
		return 2
	}
	var r *result
	var err error
	if traced {
		r, err = runTraced(w, e, d, buildDir)
	} else {
		r, err = runEndToEnd(w, e, d)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	for _, p := range r.Problems {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %s\n", name, p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for k, s := range r.Metrics {
		line.Metrics[k] = value{s.Value, s.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Println(string(data))
	return 0
}

// runAll runs every workload, prints every metric by name with its unit
// and writes the result file with the host stamp. With traced set each
// workload's traced run follows its end-to-end run and the per-layer
// metrics join the same record.
func runAll(e *env, d time.Duration, traced bool, out string) int {
	if out == "" {
		out = filepath.Join(buildDir, "result.json")
	}
	rf := resultFile{Host: stampHost(), Seed: e.seed, Seconds: d.Seconds(), Traced: traced, Workloads: map[string]*result{}}
	fmt.Printf("host: %s, %d CPUs, GOMAXPROCS %d, %s %s, backend %s, commit %s, seed %d\n",
		rf.Host.CPUModel, rf.Host.NumCPU, rf.Host.GOMAXPROCS, rf.Host.GoVersion, rf.Host.GOARCH, rf.Host.Backend, rf.Host.Commit, e.seed)
	code := 0
	for _, w := range workloads() {
		r, err := runEndToEnd(w, e, d)
		if err == nil && traced {
			var tr *result
			if tr, err = runTraced(w, e, d, buildDir); err == nil {
				r.Attempted += tr.Attempted
				r.Failed += tr.Failed
				r.Problems = append(r.Problems, tr.Problems...)
				r.Correct = r.Correct && tr.Correct
				for k, s := range tr.Metrics {
					r.Metrics[k] = s
				}
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		rf.Workloads[w.name] = r
		printResult(w.name, r)
		if !r.Correct {
			code = 1
		}
	}
	data, err := json.MarshalIndent(rf, "", "  ")
	if err == nil {
		err = os.WriteFile(out, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Printf("wrote %s\n", out)
	return code
}

func printResult(name string, r *result) {
	fmt.Printf("%s: attempted %d, failed %d (failed_ratio %.6f)\n", name, r.Attempted, r.Failed, float64(r.Failed)/float64(r.Attempted))
	for _, p := range r.Problems {
		fmt.Printf("  FAILED %s\n", p)
	}
	for _, k := range metricOrder(r.Metrics) {
		s := r.Metrics[k]
		fmt.Printf("  %-34s %14.4f %-6s", k, s.Value, s.Unit)
		if s.N > 1 {
			fmt.Printf(" q1 %.4f q3 %.4f n %d", s.Q1, s.Q3, s.N)
		}
		fmt.Println()
	}
}

// metricOrder lists the metrics present in m: end-to-end first, then the
// per-layer list in its declared order.
func metricOrder(m map[string]summary) []string {
	var names []string
	for _, k := range []string{mSetup, mOps, mP50, mRSS} {
		if _, ok := m[k]; ok {
			names = append(names, k)
		}
	}
	for _, lm := range perLayerMetrics {
		if _, ok := m[lm.name]; ok {
			names = append(names, lm.name)
		}
	}
	return names
}
