package telemetry

import (
	"math"
	"strings"
	"testing"
)

// The whole point of the package: recording must not allocate, so the
// hashing and verification hot loops can be instrumented for free.
func TestRecordPathZeroAlloc(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("t_counter_total", "test")
	g := reg.Gauge("t_gauge", "test")
	h := reg.Histogram("t_hist_seconds", "test", HashLatencyBuckets)
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Errorf("Counter.Inc allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { c.Add(3) }); n != 0 {
		t.Errorf("Counter.Add allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(42) }); n != 0 {
		t.Errorf("Gauge.Set allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Add(-1) }); n != 0 {
		t.Errorf("Gauge.Add allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(0.0021) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %v/op", n)
	}
}

// A nil registry (telemetry disabled) must hand out nil instruments
// whose every method is a safe no-op — that is the contract that lets
// libraries skip conditional plumbing.
func TestNilRegistryAndInstruments(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x_total", "")
	g := reg.Gauge("x", "")
	h := reg.Histogram("x_seconds", "", SizeBuckets)
	reg.GaugeFunc("y", "", func() float64 { return 1 })
	reg.CounterFunc("z_total", "", func() float64 { return 1 })
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	if h.Buckets() != nil {
		t.Fatal("nil histogram buckets must be nil")
	}
	if got := reg.Gather(); got != nil {
		t.Fatalf("nil registry Gather = %v", got)
	}
	if _, ok := reg.Value("x_total"); ok {
		t.Fatal("nil registry Value must report !ok")
	}
	if err := reg.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	var j *Journal
	j.Emit("tip", nil) // must not panic
	if j.Len() != 0 || j.Dropped() != 0 || j.Events(0) != nil {
		t.Fatal("nil journal must read empty")
	}
}

// Get-or-create must be idempotent per (name, labels) and distinct
// across label sets.
func TestRegistryGetOrCreate(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("shares_total", "", Label{"class", "accepted"})
	b := reg.Counter("shares_total", "", Label{"class", "accepted"})
	if a != b {
		t.Fatal("same name+labels must return the same counter")
	}
	c := reg.Counter("shares_total", "", Label{"class", "stale"})
	if a == c {
		t.Fatal("different labels must return different counters")
	}
	a.Add(2)
	c.Inc()
	total, ok := reg.Value("shares_total")
	if !ok || total != 3 {
		t.Fatalf("Value = %v, %v; want 3, true", total, ok)
	}
	// Kind mismatch must not corrupt the registry: the caller gets a
	// working detached instrument and the original survives.
	g := reg.Gauge("shares_total", "", Label{"class", "accepted"})
	g.Set(99)
	if a.Value() != 2 {
		t.Fatal("kind mismatch corrupted the original counter")
	}
}

func TestHistogramBucketsAndSum(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Sum() != 106 {
		t.Fatalf("Sum = %g", h.Sum())
	}
	bs := h.Buckets()
	wantLe := []float64{1, 2, 4, math.Inf(1)}
	wantCum := []uint64{2, 3, 4, 5}
	for i, b := range bs {
		if b.Le != wantLe[i] || b.Count != wantCum[i] {
			t.Fatalf("bucket %d = {%g %d}, want {%g %d}", i, b.Le, b.Count, wantLe[i], wantCum[i])
		}
	}
}

func TestPrometheusExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("hc_frames_total", "Frames.", Label{"dir", "in"}).Add(7)
	reg.Gauge("hc_tip_height", "Tip height.").Set(42)
	reg.GaugeFunc("hc_peers", "Peers.", func() float64 { return 3 })
	h := reg.Histogram("hc_hash_seconds", "Hash latency.", []float64{0.001, 0.01})
	h.Observe(0.002)
	h.Observe(0.0005)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP hc_frames_total Frames.",
		"# TYPE hc_frames_total counter",
		`hc_frames_total{dir="in"} 7`,
		"# TYPE hc_tip_height gauge",
		"hc_tip_height 42",
		"# TYPE hc_peers gauge",
		"hc_peers 3",
		"# TYPE hc_hash_seconds histogram",
		`hc_hash_seconds_bucket{le="0.001"} 1`,
		`hc_hash_seconds_bucket{le="0.01"} 2`,
		`hc_hash_seconds_bucket{le="+Inf"} 2`,
		"hc_hash_seconds_sum 0.0025",
		"hc_hash_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

// Histogram series must merge the instrument's own labels with le.
func TestPrometheusHistogramWithLabels(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("hc_lat_seconds", "", []float64{1}, Label{"stage", "verify"})
	h.Observe(0.5)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`hc_lat_seconds_bucket{stage="verify",le="1"} 1`,
		`hc_lat_seconds_bucket{stage="verify",le="+Inf"} 1`,
		`hc_lat_seconds_sum{stage="verify"} 0.5`,
		`hc_lat_seconds_count{stage="verify"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestLabelsRenderedSorted(t *testing.T) {
	a := renderLabels([]Label{{"b", "2"}, {"a", "1"}})
	b := renderLabels([]Label{{"a", "1"}, {"b", "2"}})
	if a != b || a != `{a="1",b="2"}` {
		t.Fatalf("renderLabels not canonical: %q vs %q", a, b)
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v", got)
		}
	}
	// The shared layouts must be valid histogram inputs (ascending), and
	// whatever overflows one lands in a last bucket that takes everything.
	for _, bs := range [][]float64{HashLatencyBuckets, IOLatencyBuckets, QueueLatencyBuckets, SizeBuckets} {
		h := NewHistogram(bs) // panics if not ascending
		h.Observe(bs[len(bs)-1] * 2)
		got := h.Buckets()
		if last := got[len(got)-1]; len(got) != len(bs)+1 || !math.IsInf(last.Le, 1) || last.Count != 1 || got[len(bs)-1].Count != 0 {
			t.Errorf("layout ending at %g: buckets %v do not end in a +Inf bucket holding the overflow", bs[len(bs)-1], got)
		}
	}
}

func TestGatherSnapshotsEverything(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a_total", "").Inc()
	reg.Gauge("b", "").Set(2)
	reg.Histogram("c_seconds", "", []float64{1}).Observe(0.5)
	samples := reg.Gather()
	if len(samples) != 3 {
		t.Fatalf("Gather len = %d", len(samples))
	}
	byName := map[string]float64{}
	for _, s := range samples {
		byName[s.Name] = s.Value
	}
	if byName["a_total"] != 1 || byName["b"] != 2 || byName["c_seconds"] != 1 {
		t.Fatalf("Gather = %+v", byName)
	}
}
