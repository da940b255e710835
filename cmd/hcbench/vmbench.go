package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"time"

	"hashcore"
	"hashcore/internal/telemetry"
	"hashcore/internal/workload"
)

// VMBenchReport is the machine-readable record of one hash-pipeline
// benchmark run. It captures the four headline metrics the repo tracks
// across PRs (hashes/sec, ns/hash, allocs/hash, bytes/hash), the
// generation-vs-execution split of each hash (so perf PRs can see which
// half of the pipeline they moved), and enough context to compare runs
// honestly. Both execution backends are measured in one run: the headline
// block describes the requested backend (the engine production runs), and
// ns_per_hash_native / ns_per_hash_interp record the same workload under
// each engine so the native speedup is data in the report, not a claim in
// prose.
type VMBenchReport struct {
	Profile    string  `json:"profile"`
	Iterations int     `json:"iterations"`
	GoVersion  string  `json:"go_version"`
	GOARCH     string  `json:"goarch"`
	Timestamp  string  `json:"timestamp"`
	Backend    string  `json:"backend"` // engine behind the headline numbers
	HashesPerS float64 `json:"hashes_per_sec"`
	NsPerHash  float64 `json:"ns_per_hash"`
	AllocsHash float64 `json:"allocs_per_hash"`
	BytesHash  float64 `json:"bytes_per_hash"`

	// Cross-backend comparison on the identical input sequence.
	// NsPerHashNative is 0 on platforms without a native backend.
	NsPerHashNative float64 `json:"ns_per_hash_native"`
	NsPerHashInterp float64 `json:"ns_per_hash_interp"`
	// CompileNsPerHash is mean nanoseconds per hash spent compiling
	// widgets to native code (part of exec_ns; 0 for the interpreter).
	CompileNsPerHash float64 `json:"compile_ns"`
	// FillNsPerHash is mean nanoseconds per hash spent resetting the VM's
	// scratch memory (part of exec_ns). The key predates the sparse memory
	// model: nothing is filled, the reset clears the written map.
	FillNsPerHash float64 `json:"fill_ns"`
	// WordsWrittenPerHash is the mean number of distinct scratch-memory
	// words a hash stored to, of ImageWords in the image.
	WordsWrittenPerHash float64 `json:"words_written_per_hash"`
	ImageWords          int     `json:"image_words"`
	// LoadNsPerHash is mean nanoseconds per hash spent loading generated
	// widgets into the VM (part of exec_ns).
	LoadNsPerHash float64 `json:"load_ns"`

	// The gen/exec split: mean nanoseconds per hash spent generating
	// widget programs vs loading + executing them in the VM. GateNs is the
	// remainder (hash-gate applications, buffer stitching, measurement
	// overhead). RetiredPerHash and EffectiveMIPS describe the execution
	// half's throughput in retired widget instructions.
	GenNsPerHash   float64 `json:"gen_ns"`
	ExecNsPerHash  float64 `json:"exec_ns"`
	GateNsPerHash  float64 `json:"gate_ns"`
	RetiredPerHash float64 `json:"retired_per_hash"`
	EffectiveMIPS  float64 `json:"effective_mips"`

	// LatencyBuckets is the cumulative per-hash latency distribution in
	// exactly the runtime's hashcore_hash_seconds bucket layout
	// (telemetry.HashLatencyBuckets), so offline benchmark runs and live
	// /metrics scrapes are comparable bucket-for-bucket.
	LatencyBuckets []bucketJSON `json:"latency_buckets"`
}

// resolvedBackendName names the widget execution engine an
// auto-configured hasher runs on this platform — the value the bench
// reports record in their backend field so numbers from JIT-capable and
// interpreter-only hosts are never compared as equals.
func resolvedBackendName() string {
	if hashcore.NativeBackendSupported() {
		return "native"
	}
	return "interp"
}

// bucketJSON is one cumulative histogram bucket with the bound rendered
// Prometheus-style (strings survive +Inf, which raw JSON floats cannot).
type bucketJSON struct {
	Le    string `json:"le"`
	Count uint64 `json:"count"`
}

func toBucketJSON(bs []telemetry.BucketCount) []bucketJSON {
	out := make([]bucketJSON, len(bs))
	for i, b := range bs {
		le := "+Inf"
		if !math.IsInf(b.Le, 1) {
			le = strconv.FormatFloat(b.Le, 'g', -1, 64)
		}
		out[i] = bucketJSON{Le: le, Count: b.Count}
	}
	return out
}

// vmBenchPass is one backend's measurement over the shared input sequence.
type vmBenchPass struct {
	nsPerHash float64
	allocs    float64
	bytes     float64
	phases    hashcore.PhaseTimings
	elapsed   time.Duration
	buckets   []telemetry.BucketCount
	digests   []hashcore.Digest // first few, for cross-backend comparison
}

// flushFinalizers settles the heap before a measured window. Two GCs age
// this pass's warmup garbage all the way out (sync.Pool holds freed
// sessions in a victim cache for one GC cycle), and the probe finalizer
// proves the finalizer goroutine has actually run: its first-ever
// execution lazily allocates its call frame, a one-time runtime malloc
// that must not land inside a window asserted to allocate nothing.
func flushFinalizers() {
	done := make(chan struct{})
	// 16 bytes: objects in the runtime's shared tiny-allocation blocks
	// are not guaranteed to be finalized.
	runtime.SetFinalizer(new([16]byte), func(*[16]byte) { close(done) })
	runtime.GC()
	runtime.GC()
	<-done
}

// benchInput writes the i-th benchmark input.
func benchInput(input []byte, i int) {
	binary.LittleEndian.PutUint64(input, uint64(i)+10)
}

// measureVMPass measures the production hashing path — a dedicated
// session — under one backend. The session (not the pooled Hasher.Hash
// front door) is measured because it is the loop miners and pool
// verifiers actually run, and its steady state allocates exactly nothing,
// which the CI smoke job asserts against this report.
func measureVMPass(profileName, backend string, n int) (*vmBenchPass, error) {
	h, err := hashcore.New(hashcore.WithProfile(profileName), hashcore.WithBackend(backend))
	if err != nil {
		return nil, err
	}
	s := h.NewSession()
	pass := &vmBenchPass{}

	input := make([]byte, 80)
	// Warm up with a dry run of the exact measurement inputs: every widget
	// the measured loop will generate has then already been through the
	// session once, so all buffer high-water marks are reached and the
	// measured pass allocates exactly nothing. The first few inputs also
	// cross-check the session digest against the public pooled path and
	// are retained for the cross-backend digest comparison.
	for i := 0; i < n; i++ {
		benchInput(input, i)
		got, err := s.Hash(input)
		if err != nil {
			return nil, err
		}
		if i < 5 {
			want, err := h.Hash(input)
			if err != nil {
				return nil, err
			}
			if got != want {
				return nil, fmt.Errorf("%s: session digest diverged from pooled digest on warmup input %d", backend, i)
			}
			pass.digests = append(pass.digests, got)
		}
	}

	// The latency histogram shares the runtime metric's bucket layout;
	// its two clock reads per ~ms hash are noise next to the hash itself.
	lat := telemetry.NewRegistry().Histogram("hash_seconds", "offline per-hash latency",
		telemetry.HashLatencyBuckets)

	flushFinalizers()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		benchInput(input, i)
		t0 := time.Now()
		if _, err := s.HashTimed(input, &pass.phases); err != nil {
			return nil, err
		}
		lat.ObserveSince(t0)
	}
	pass.elapsed = time.Since(start)
	runtime.ReadMemStats(&after)

	pass.nsPerHash = float64(pass.elapsed.Nanoseconds()) / float64(n)
	pass.allocs = float64(after.Mallocs-before.Mallocs) / float64(n)
	pass.bytes = float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	pass.buckets = lat.Buckets()
	return pass, nil
}

// runVMBench measures the hash pipeline under both execution backends on
// the identical input sequence, cross-checks their digests, and writes
// the combined report to outPath. backendFlag names the engine the
// headline numbers describe ("auto" resolves to native where supported).
func runVMBench(profileName, backendFlag string, n int, outPath string) error {
	if n < 1 {
		n = 1
	}
	w, err := workload.ByName(profileName)
	if err != nil {
		return err
	}
	imageWords := w.Profile.WorkingSet / 8
	headlineBackend := "interp"
	if hashcore.NativeBackendSupported() && backendFlag != "interp" {
		headlineBackend = "native"
	}

	interp, err := measureVMPass(profileName, "interp", n)
	if err != nil {
		return err
	}
	var native *vmBenchPass
	if hashcore.NativeBackendSupported() {
		native, err = measureVMPass(profileName, "native", n)
		if err != nil {
			return err
		}
		for i := range native.digests {
			if native.digests[i] != interp.digests[i] {
				return fmt.Errorf("backend digest mismatch on input %d: native %x != interp %x",
					i, native.digests[i][:8], interp.digests[i][:8])
			}
		}
	}

	head := interp
	if headlineBackend == "native" {
		head = native
	}
	nsPerHash := head.nsPerHash
	genNs := float64(head.phases.GenNs) / float64(n)
	execNs := float64(head.phases.ExecNs) / float64(n)
	execSeconds := float64(head.phases.ExecNs) / 1e9
	rep := VMBenchReport{
		Profile:    profileName,
		Iterations: n,
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Backend:    headlineBackend,
		HashesPerS: float64(n) / head.elapsed.Seconds(),
		NsPerHash:  nsPerHash,
		AllocsHash: head.allocs,
		BytesHash:  head.bytes,

		NsPerHashInterp:  interp.nsPerHash,
		CompileNsPerHash: float64(head.phases.CompileNs) / float64(n),
		FillNsPerHash:    float64(head.phases.FillNs) / float64(n),
		LoadNsPerHash:    float64(head.phases.LoadNs) / float64(n),

		WordsWrittenPerHash: float64(head.phases.WordsWritten) / float64(n),
		ImageWords:          imageWords,

		GenNsPerHash:   genNs,
		ExecNsPerHash:  execNs,
		GateNsPerHash:  nsPerHash - genNs - execNs,
		RetiredPerHash: float64(head.phases.Retired) / float64(n),
		EffectiveMIPS:  float64(head.phases.Retired) / execSeconds / 1e6,
		LatencyBuckets: toBucketJSON(head.buckets),
	}
	if native != nil {
		rep.NsPerHashNative = native.nsPerHash
	}

	fmt.Printf("profile=%s n=%d backend=%s  %.1f hashes/s  %.0f ns/hash  %.2f allocs/hash  %.0f B/hash\n",
		rep.Profile, rep.Iterations, rep.Backend, rep.HashesPerS, rep.NsPerHash, rep.AllocsHash, rep.BytesHash)
	fmt.Printf("split: gen %.0f ns  exec %.0f ns (compile %.0f, load %.0f, memory reset %.0f)  gate %.0f ns  |  %.0f instr/hash  %.1f effective MIPS  |  %.0f of %d image words written\n",
		rep.GenNsPerHash, rep.ExecNsPerHash, rep.CompileNsPerHash, rep.LoadNsPerHash, rep.FillNsPerHash,
		rep.GateNsPerHash, rep.RetiredPerHash, rep.EffectiveMIPS, rep.WordsWrittenPerHash, rep.ImageWords)
	if native != nil {
		fmt.Printf("backends: native %.0f ns/hash  interp %.0f ns/hash  (%.2fx)\n",
			rep.NsPerHashNative, rep.NsPerHashInterp, rep.NsPerHashInterp/rep.NsPerHashNative)
	} else {
		fmt.Printf("backends: interp %.0f ns/hash (no native backend on %s)\n", rep.NsPerHashInterp, runtime.GOARCH)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", outPath, err)
	}
	fmt.Printf("wrote %s\n", outPath)
	return nil
}
