package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"hashcore"
)

// Names of the end-to-end metrics, identical on every workload; what one
// operation is differs per workload and is stated in README.md.
const (
	mSetup = "setup_s"
	mOps   = "ops_per_s"
	mP50   = "op_p50_us"
	mRSS   = "peak_rss_mb"
)

// sizes holds every work-fixed quantity of a run; the timed windows are
// sized by -seconds. The smoke test shrinks these, nothing else.
type sizes struct {
	setups      int           // most set-ups per run; setup_s is their median
	warmup      time.Duration // each session hashes (each connection submits) this long before timing
	checkInputs int           // canonical inputs behind checksum, alloc count and cross-check
	chainBlocks int           // length of the chain sync_cold fetches
	replayN     int           // inputs of a decomposed replay in a traced run
}

var fullSizes = sizes{setups: 7, warmup: 200 * time.Millisecond, checkInputs: 64, chainBlocks: 400, replayN: 128}

// setupBudget ends the repeated set-ups early: once three are done, no
// further one starts after this much set-up time in all. A set-up of tens
// of milliseconds is repeated seven times, because its time is mostly the
// host's mood; one of seconds three times.
const setupBudget = 2 * time.Second

// repsIn splits a timed window of length d into repetitions of about
// repLen, at least two.
func repsIn(d, repLen time.Duration) int {
	return max(2, int(d/repLen))
}

// env is what a workload gets from the harness: the seed its inputs come
// from, the thread budget and a scratch directory inside the checkout.
type env struct {
	seed    uint64
	threads int
	tmp     string
	size    sizes
}

// rng returns the input generator for one purpose of one workload; the
// same (seed, label) always yields the same stream.
func (e *env) rng(label string) *rand.Rand {
	return rand.New(rand.NewPCG(e.seed, fnv64a(label)))
}

func fnv64a(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// outcome is what the timed windows of one run produced.
type outcome struct {
	ops       []float64   // operations per second, one value per repetition
	lat       [][]float64 // operation latencies in µs, one slice per repetition
	attempted int
	failed    int
	// facts are measurements a workload takes on the side (stale ratio,
	// generator lateness, block-to-peer latency); the traced run reports
	// them as per-layer metrics.
	facts map[string]float64
	// problems explains each failure class once, for the human reader.
	problems []string
}

// fail counts n failed operations under one explanation.
func (o *outcome) fail(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	o.failed += n
	o.problems = append(o.problems, fmt.Sprintf("%d× ", n)+fmt.Sprintf(format, args...))
}

func (o *outcome) fact(name string, v float64) {
	if o.facts == nil {
		o.facts = make(map[string]float64)
	}
	o.facts[name] = v
}

// instance is one set-up of a workload: everything that exists before the
// first timed window.
type instance interface {
	// measure runs timed windows for about d, then checks the outputs.
	measure(d time.Duration) (*outcome, error)
	// layers takes the per-layer measurements of a traced run: a
	// decomposed replay recorded into tr plus whatever the in-situ
	// registries hold after measure. o is that measure's outcome.
	layers(o *outcome, tr *tracer) (map[string]float64, error)
	// close stops every goroutine, listener and file the set-up started.
	close() error
}

// workload is one workload of the program. BENCHMARK.json names those the
// driver runs; README.md says why not all.
type workload struct {
	name string
	// setup builds an instance; traced switches the in-situ telemetry on
	// (registries passed to every layer, HashTimed in place of Hash).
	setup func(e *env, traced bool) (instance, error)
}

func workloads() []workload {
	return []workload{
		{"mine_leela", mineSetup("leela", "native")},
		{"mine_mcf", mineSetup("mcf", "native")},
		{"mine_leela_interp", mineSetup("leela", "interp")},
		{"pool_e2e", poolE2ESetup},
		{"pool_flood", poolFloodSetup},
		{"sync_cold", syncSetup},
	}
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// result is one workload's record in a result file.
type result struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Metrics   map[string]summary `json:"metrics"`
}

// settle ends a workload: close the instance, then wait for the goroutine
// count to fall back to base so one workload cannot tax the next. Pooled
// hashing sessions release their helper through a finalizer, hence the
// collections while waiting.
func settle(inst instance, base int) error {
	if err := inst.close(); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d goroutines still running after shutdown (%d before set-up)", n, base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// setUp builds the workload up to size.setups times (see setupBudget),
// tearing all but the last down again, and returns the last instance with
// every set-up time.
func setUp(w workload, e *env, traced bool) (instance, []float64, error) {
	var times []float64
	var total float64
	for i := 0; ; i++ {
		base := runtime.NumGoroutine()
		t0 := time.Now()
		inst, err := w.setup(e, traced)
		if err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		times = append(times, time.Since(t0).Seconds())
		total += times[i]
		if i == e.size.setups-1 || (i >= 2 && total > setupBudget.Seconds()) {
			return inst, times, nil
		}
		if err := settle(inst, base); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", w.name, err)
		}
		// Hand the torn-down set-up's memory back before the next one
		// allocates, or the peak depends on when the collector ran.
		inst = nil
		debug.FreeOSMemory()
	}
}

// runEndToEnd is the untraced run: set-ups, timed windows, output checks,
// shutdown. Its metrics are exactly the end_to_end list of BENCHMARK.json.
func runEndToEnd(w workload, e *env, d time.Duration) (*result, error) {
	resetPeakRSS()
	base := runtime.NumGoroutine()
	inst, setups, err := setUp(w, e, false)
	if err != nil {
		return nil, err
	}
	flushFinalizers()
	o, err := inst.measure(d)
	if err != nil {
		inst.close()
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if err := settle(inst, base); err != nil {
		o.attempted++
		o.fail(1, "%v", err)
	}
	r := &result{Attempted: o.attempted, Failed: o.failed, Problems: o.problems, Metrics: map[string]summary{}}
	r.Correct = o.failed == 0
	r.Metrics[mSetup] = aggregateSetups(setups)
	if r.Metrics[mOps], err = aggregateReps(o.ops, "1/s"); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", w.name, mOps, err)
	}
	if r.Metrics[mP50], err = aggregateLatency(o.lat, 50, "us"); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", w.name, mP50, err)
	}
	rss := peakRSSMB()
	r.Metrics[mRSS] = summary{Value: rss, Unit: "MB", Q1: rss, Q3: rss, N: 1}
	return r, nil
}

// runTraced is the separate traced run: the workload once plain and once
// with in-situ telemetry, both at a quarter of the run length, then the
// decomposed replay. Its metrics are exactly the per_layer list.
func runTraced(w workload, e *env, d time.Duration, outDir string) (*result, error) {
	e2 := *e
	e2.size.setups = 1
	d /= 4
	headline := func(traced bool) (instance, *outcome, error) {
		inst, _, err := setUp(w, &e2, traced)
		if err != nil {
			return nil, nil, err
		}
		flushFinalizers()
		o, err := inst.measure(d)
		if err != nil {
			inst.close()
			return nil, nil, fmt.Errorf("%s: %w", w.name, err)
		}
		return inst, o, nil
	}
	base := runtime.NumGoroutine()
	plainInst, plain, err := headline(false)
	if err != nil {
		return nil, err
	}
	if err := settle(plainInst, base); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	inst, o, err := headline(true)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	layers, err := inst.layers(o, tr)
	if err != nil {
		inst.close()
		return nil, fmt.Errorf("%s: traced layers: %w", w.name, err)
	}
	if err := settle(inst, base); err != nil {
		o.attempted++
		o.fail(1, "%v", err)
	}
	if err := tr.check(); err != nil {
		o.attempted++
		o.fail(1, "span tree: %v", err)
	}
	// The tail is reported here and not gated: on a shared host a p95
	// moves by half between identical runs.
	if p95, err := aggregateLatency(o.lat, 95, "us"); err == nil {
		layers["tail.op_p95_us"] = p95.Value
	}
	bare, _ := aggregateReps(plain.ops, "")
	instrumented, _ := aggregateReps(o.ops, "")
	layers["telemetry.trace_overhead_pct"] = 100 * (bare.Value - instrumented.Value) / bare.Value
	if err := tr.write(outDir, w.name, e.seed); err != nil {
		return nil, err
	}

	r := &result{Attempted: o.attempted, Failed: o.failed, Problems: o.problems, Metrics: map[string]summary{}}
	r.Correct = o.failed == 0
	for _, m := range perLayerMetrics {
		v, ok := layers[m.name]
		if !ok {
			// A layer this workload never enters did no work.
			v = 0
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: per-layer metric %s is %v", w.name, m.name, v)
		}
		r.Metrics[m.name] = summary{Value: v, Unit: m.unit, Q1: v, Q3: v, N: 1}
		delete(layers, m.name)
	}
	for name := range layers {
		return nil, fmt.Errorf("%s: layer metric %q is not in the per-layer list", w.name, name)
	}
	return r, nil
}

// flushFinalizers settles the heap before a measured window: two
// collections age set-up garbage out of the sync.Pool victim cache, and
// the probe proves the finalizer goroutine has run, so its one-time frame
// allocation cannot land inside a window asserted to allocate nothing.
func flushFinalizers() {
	done := make(chan struct{})
	// 16 bytes: smaller objects share tiny-allocation blocks and are not
	// guaranteed to be finalized.
	runtime.SetFinalizer(new([16]byte), func(*[16]byte) { close(done) })
	runtime.GC()
	runtime.GC()
	<-done
}

// resetPeakRSS starts a new resident-set high-water mark, so that in a run
// of all six workloads each reports its own peak and not the largest so
// far. Linux only, best effort: elsewhere the peak is the process's.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's resident-set high-water mark. Off Linux it
// falls back to what the Go runtime obtained from the OS.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// hostStamp records where a result was taken; -compare refuses to compare
// results whose stamps differ.
type hostStamp struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	Backend    string `json:"backend"`
	Commit     string `json:"commit"`
}

func stampHost() hostStamp {
	h := hostStamp{
		CPUModel:   "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		Backend:    "interp",
		Commit:     "unknown",
	}
	if hashcore.NativeBackendSupported() {
		h.Backend = "native"
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// comparable reports whether two stamps describe the same measuring
// conditions; the commit is what a comparison varies.
func (h hostStamp) comparable(o hostStamp) bool {
	h.Commit, o.Commit = "", ""
	return h == o
}
