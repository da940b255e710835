package main

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
	"time"

	"hashcore"
)

var update = flag.Bool("update", false, "rewrite testdata/checksums.json from the interpreter")

// smokeSizes shrinks every work-fixed quantity; the timed windows shrink
// through the durations below. What a run measures is unchanged.
var smokeSizes = sizes{setups: 1, warmup: 10 * time.Millisecond, checkInputs: 4, chainBlocks: 60, replayN: 8}

// smokeSeconds are short windows that still give each workload the few
// dozen latency samples a median needs.
var smokeSeconds = map[string]float64{
	"mine_leela":        0.3,
	"mine_mcf":          0.6,
	"mine_leela_interp": 0.3,
	"pool_e2e":          0.6,
	"pool_flood":        0.8,
	"sync_cold":         0.1, // two syncs of the whole chain regardless
}

func smokeEnv(t *testing.T) *env {
	t.Helper()
	t.Setenv("HASHCORE_BACKEND", "")
	os.Unsetenv("HASHCORE_BACKEND")
	threads := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(threads)
	return &env{seed: 7, threads: threads, tmp: t.TempDir(), size: smokeSizes}
}

func names(ms []metricSpec) map[string]string {
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

func keys[V any](m map[string]V) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// checkMetrics asserts that r carries exactly the metrics want names,
// each finite and with the declared unit.
func checkMetrics(t *testing.T, what string, r *result, want map[string]string) {
	t.Helper()
	for _, name := range keys(r.Metrics) {
		s := r.Metrics[name]
		unit, ok := want[name]
		switch {
		case !ok:
			t.Errorf("%s: emitted %s, which BENCHMARK.json does not name", what, name)
		case s.Unit != unit:
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", what, name, s.Unit, unit)
		case math.IsNaN(s.Value) || math.IsInf(s.Value, 0):
			t.Errorf("%s: %s = %v", what, name, s.Value)
		}
	}
	for _, name := range keys(want) {
		if _, ok := r.Metrics[name]; !ok {
			t.Errorf("%s: %s is in BENCHMARK.json but was not emitted", what, name)
		}
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("%s: correct %v, attempted %d, failed %d: %v", what, r.Correct, r.Attempted, r.Failed, r.Problems)
	}
}

// TestSmoke runs every workload at a small scale, end to end and traced,
// and holds the program to BENCHMARK.json: its workloads exist, exactly the
// named metrics are emitted with their units, all finite, nothing failed,
// and span trees have their children inside their parents.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	// BENCHMARK.json names the workloads the driver runs; the program may
	// have more (README.md says which and why).
	built := map[string]bool{}
	for _, w := range workloads() {
		built[w.name] = true
	}
	for _, w := range spec.Workloads {
		if !built[w.Name] {
			t.Errorf("BENCHMARK.json names workload %q, which the program does not have", w.Name)
		}
	}
	if len(spec.PerLayer) != len(perLayerMetrics) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, metrics.go %d", len(spec.PerLayer), len(perLayerMetrics))
	}
	if spec.RunSeconds != 36 {
		t.Logf("run_seconds is %d; README.md quotes spreads measured at 36", spec.RunSeconds)
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}

	e := smokeEnv(t)
	for _, w := range workloads() {
		d := time.Duration(smokeSeconds[w.name] * float64(time.Second))
		before := runtime.NumGoroutine()
		r, err := runEndToEnd(w, e, d)
		if err != nil {
			t.Fatal(err)
		}
		checkMetrics(t, w.name, r, names(spec.EndToEnd))
		for _, name := range []string{mSetup, mOps, mP50, mRSS} {
			if r.Metrics[name].Value <= 0 {
				t.Errorf("%s: %s = %v, end-to-end metrics are never 0", w.name, name, r.Metrics[name].Value)
			}
		}

		out := t.TempDir()
		tr, err := runTraced(w, e, d, out)
		if err != nil {
			t.Fatal(err)
		}
		checkMetrics(t, w.name+" traced", tr, names(spec.PerLayer))
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("%s: %d goroutines after the workload, %d before", w.name, n, before)
		}

		data, err := os.ReadFile(filepath.Join(out, "trace-"+w.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Workload string `json:"workload"`
			Seed     uint64 `json:"seed"`
			Spans    []span `json:"spans"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("%s: trace file: %v", w.name, err)
		}
		if doc.Workload != w.name || doc.Seed != e.seed || len(doc.Spans) == 0 {
			t.Errorf("%s: trace file names %q seed %d with %d spans", w.name, doc.Workload, doc.Seed, len(doc.Spans))
		}
		if err := (&tracer{spans: doc.Spans}).check(); err != nil {
			t.Errorf("%s: span tree as written: %v", w.name, err)
		}
		roots := 0
		for _, s := range doc.Spans {
			if s.Parent < 0 {
				roots++
			}
		}
		if roots == 0 || roots == len(doc.Spans) {
			t.Errorf("%s: %d root spans of %d: no tree", w.name, roots, len(doc.Spans))
		}
	}
}

// canonicalDigests hashes a mine workload's canonical inputs for the
// checksum seed on the given backend.
func canonicalDigests(t *testing.T, w workload, backend string) []hashcore.Digest {
	t.Helper()
	e := &env{seed: checksumSeed, threads: 1, size: sizes{}}
	inst, err := w.setup(e, false)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	mi := inst.(*mineInst)
	h, err := hashcore.New(hashcore.WithProfile(mi.profile), hashcore.WithBackend(backend))
	if err != nil {
		t.Fatal(err)
	}
	s := h.NewSession()
	defer s.Close()
	ins := mi.canonical(fullSizes.checkInputs)
	ds := make([]hashcore.Digest, len(ins))
	if err := hashAll(s, ins, ds); err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestChecksumFixtures recomputes each mine_* checksum with the
// interpreter and holds it against testdata/checksums.json, which the
// benchmark checks every run at seed 2019 against. -update rewrites it.
func TestChecksumFixtures(t *testing.T) {
	got := map[string]string{}
	for _, w := range workloads()[:3] {
		got[w.name] = foldDigests(canonicalDigests(t, w, "interp"))
	}
	if *update {
		data, _ := json.MarshalIndent(got, "", "  ")
		if err := os.WriteFile("testdata/checksums.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for name, sum := range got {
		want, err := committedChecksum(name)
		if err != nil {
			t.Fatal(err)
		}
		if sum != want {
			t.Errorf("%s: interpreter checksum %s, committed %s", name, sum, want)
		}
	}
}

// A flipped digest must raise the failure count, through the checksum and
// through the comparison with the other engine alike.
func TestFlippedDigestFails(t *testing.T) {
	w := workloads()[0]
	good := canonicalDigests(t, w, "native")
	o := &outcome{}
	if err := o.checksum(w.name, good); err != nil || o.failed != 0 || o.attempted != 1 {
		t.Fatalf("true digests: failed %d of %d, %v %v", o.failed, o.attempted, err, o.problems)
	}
	o.agree(good, good, "engines disagree")
	if o.failed != 0 {
		t.Fatalf("equal digests counted as failures: %v", o.problems)
	}

	bad := append([]hashcore.Digest(nil), good...)
	bad[17][5] ^= 0x40
	o = &outcome{}
	if err := o.checksum(w.name, bad); err != nil || o.failed != 1 {
		t.Errorf("flipped digest against the checksum: failed %d, %v", o.failed, err)
	}
	o.agree(bad, good, "engines disagree")
	if o.failed != 2 || o.attempted != 1+len(good) || len(o.problems) != 2 {
		t.Errorf("flipped digest against the other engine: failed %d of %d: %v", o.failed, o.attempted, o.problems)
	}
}

// A verdict outside the class its submit allows must raise the failure
// count, whichever way it is wrong.
func TestWrongVerdictFails(t *testing.T) {
	cases := []struct {
		kind   submitKind
		status string
		wrong  bool
	}{
		{kindFresh, "accepted", false},
		{kindFresh, "block", false},
		{kindFresh, "duplicate", true},
		{kindFresh, "invalid", true},
		{kindFresh, "low_diff", false}, // one digest in 65,536 is above the rounded share target
		{kindReplay, "duplicate", false},
		{kindReplay, "stale", false},
		{kindReplay, "accepted", true},
		{kindUnknown, "stale", false},
		{kindUnknown, "accepted", true},
	}
	for _, c := range cases {
		cl := &client{pending: map[uint64]pendingSubmit{9: {kind: c.kind, job: "3", due: time.Now()}}, slots: make(chan struct{}, 1)}
		cl.stats.sent = 1
		cl.verdict(9, c.status, 40, time.Now())
		s := cl.take()
		o := &outcome{}
		s.book(o)
		if (o.failed == 1) != c.wrong || o.attempted != 1 {
			t.Errorf("kind %d judged %q: failed %d of %d", c.kind, c.status, o.failed, o.attempted)
		}
	}

	// A fresh share judged stale is in order only across a job cut.
	for _, c := range []struct {
		lastJob uint64
		wrong   int
	}{{3, 1}, {4, 0}} {
		cl := &client{pending: map[uint64]pendingSubmit{9: {kind: kindFresh, job: "3"}}, slots: make(chan struct{}, 1)}
		cl.maxJob.Store(c.lastJob)
		cl.verdict(9, "stale", 40, time.Now())
		if s := cl.take(); s.wrong != c.wrong || s.staleFresh != 1-c.wrong {
			t.Errorf("stale verdict on job 3 with last job %d: wrong %d, stale %d", c.lastJob, s.wrong, s.staleFresh)
		}
	}

	// A verdict for a submit never made, and a submit never answered.
	cl := &client{pending: map[uint64]pendingSubmit{}, slots: make(chan struct{}, 1)}
	cl.verdict(1, "accepted", 40, time.Now())
	if s := cl.take(); s.wrong != 1 {
		t.Errorf("unasked verdict: wrong %d", s.wrong)
	}
	o := &outcome{}
	(&clientStats{sent: 5, unanswered: 2}).book(o)
	if o.failed != 2 || o.attempted != 5 {
		t.Errorf("unanswered submits: failed %d of %d", o.failed, o.attempted)
	}
}

// A sync that stops short of the source's tip must raise the failure
// count by the blocks it missed.
func TestShortSyncFails(t *testing.T) {
	e := smokeEnv(t)
	e.size.chainBlocks = 40
	inst, err := syncSetup(e, false)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	si := inst.(*syncInst)

	o, err := si.measure(time.Millisecond)
	if err != nil || o.failed != 0 {
		t.Fatalf("full sync: failed %d, %v %v", o.failed, err, o.problems)
	}
	si.timeout = 5 * time.Millisecond // about three blocks' worth
	o, err = si.measure(time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if o.failed == 0 || o.failed > 2*40+1 || o.attempted != 2*40+1 {
		t.Errorf("short sync: failed %d of %d: %v", o.failed, o.attempted, o.problems)
	}
}
