// Package telemetry is the repository's dependency-free observability
// layer: metrics registries (atomic counters, gauges and fixed-bucket
// histograms whose record path allocates nothing — safe to call from the
// hashing and verification hot loops), Prometheus
// text-format exposition, a bounded structured event journal, and the
// debug HTTP plane (/metrics, /events, /healthz, pprof) every daemon
// mounts behind -metrics-addr.
//
// Design rules:
//
//   - The record path (Counter.Add, Gauge.Set, Histogram.Observe) is a
//     handful of atomic operations, zero allocations, no locks. The
//     AllocsPerRun tests lock this in.
//   - Instruments are resolved once, at construction, by get-or-create
//     against a Registry; labels are rendered then, never on record.
//   - Every instrument method is nil-receiver safe, so a subsystem built
//     with a nil *Registry is simply uninstrumented — no conditional
//     plumbing at call sites, one predictable branch per record.
//   - Registries are values, not global state: libraries take one in
//     their config; each daemon, test and simnet-lab node mints its own
//     with NewRegistry.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is ready
// to use; a nil Counter is a no-op (the disabled-telemetry path).
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable instantaneous value. The zero value is ready; a
// nil Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the value by delta (negative to decrease).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket cumulative histogram. Buckets are upper
// bounds in ascending order with an implicit +Inf bucket appended; the
// record path is one linear scan plus three atomic adds and allocates
// nothing. A nil Histogram is a no-op.
type Histogram struct {
	upper  []float64
	counts []atomic.Uint64 // len(upper)+1, last is +Inf
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// NewHistogram builds a standalone histogram, one no registry names.
// Buckets must be ascending; they are copied.
func NewHistogram(buckets []float64) *Histogram {
	upper := append([]float64(nil), buckets...)
	for i := 1; i < len(upper); i++ {
		if upper[i] <= upper[i-1] {
			panic(fmt.Sprintf("telemetry: histogram buckets not ascending at %d: %v", i, buckets))
		}
	}
	return &Histogram{upper: upper, counts: make([]atomic.Uint64, len(upper)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(t0).Seconds())
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Buckets returns the cumulative per-bucket counts paired with their
// upper bounds (the final entry is the +Inf bucket, equal to Count).
func (h *Histogram) Buckets() []BucketCount {
	if h == nil {
		return nil
	}
	out := make([]BucketCount, len(h.upper)+1)
	cum := uint64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := math.Inf(1)
		if i < len(h.upper) {
			le = h.upper[i]
		}
		out[i] = BucketCount{Le: le, Count: cum}
	}
	return out
}

// BucketCount is one cumulative histogram bucket: observations <= Le.
type BucketCount struct {
	Le    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// ExpBuckets returns n ascending bucket bounds starting at start and
// multiplying by factor — the standard layout for latency histograms.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Shared bucket layouts. Every histogram that times a hash evaluation
// (hashcore_hash_seconds, pool_share_verify_seconds) uses
// HashLatencyBuckets, so they are comparable bucket-for-bucket.
var (
	// HashLatencyBuckets spans 100µs..3.3s ×2 (hashes are ~2ms today).
	HashLatencyBuckets = ExpBuckets(100e-6, 2, 16)
	// IOLatencyBuckets spans 10µs..5.2s ×4 (fsync, appends).
	IOLatencyBuckets = ExpBuckets(10e-6, 4, 10)
	// QueueLatencyBuckets spans 1µs..1s ×4 (queue waits, fan-out).
	QueueLatencyBuckets = ExpBuckets(1e-6, 4, 10)
	// SizeBuckets spans 1..4096 ×2 (batch sizes, depths).
	SizeBuckets = ExpBuckets(1, 2, 13)
)

// Label is one metric dimension, rendered into the instrument's identity
// at construction time (never on the record path).
type Label struct {
	Key, Value string
}

// metricKind discriminates registry entries.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

func (k metricKind) prometheus() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// entry is one registered instrument.
type entry struct {
	name   string
	labels string // rendered {k="v",...} or ""
	help   string
	kind   metricKind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64
}

// value flattens the entry to one float (histograms report their count).
func (e *entry) value() float64 {
	switch e.kind {
	case kindCounter:
		return float64(e.counter.Value())
	case kindGauge:
		return float64(e.gauge.Value())
	case kindHistogram:
		return float64(e.hist.Count())
	default:
		return e.fn()
	}
}

// Registry is a set of named instruments. Get-or-create constructors are
// idempotent: asking twice for the same (name, labels) returns the same
// instrument, so layers can resolve their instruments independently.
// All methods are safe for concurrent use, and every method on a nil
// *Registry returns a nil (no-op) instrument — a nil registry IS the
// disabled-telemetry configuration.
type Registry struct {
	mu      sync.RWMutex
	byKey   map[string]*entry
	ordered []*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*entry)}
}

// renderLabels builds the canonical {k="v",...} form, sorted by key.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// lookup finds or creates the entry for (name, labels). make runs under
// the write lock only on first creation. A name registered twice with
// different kinds returns a detached instrument of the requested kind
// (misconfiguration must not corrupt the exposition, and the caller's
// records still have somewhere to go).
func (r *Registry) lookup(name, labels, help string, kind metricKind, make func(*entry)) *entry {
	key := name + "\xff" + labels
	r.mu.RLock()
	e, ok := r.byKey[key]
	r.mu.RUnlock()
	if ok && e.kind == kind {
		return e
	}
	if ok {
		e = &entry{name: name, labels: labels, help: help, kind: kind}
		make(e)
		return e
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.byKey[key]; ok {
		if e.kind == kind {
			return e
		}
		det := &entry{name: name, labels: labels, help: help, kind: kind}
		make(det)
		return det
	}
	e = &entry{name: name, labels: labels, help: help, kind: kind}
	make(e)
	r.byKey[key] = e
	r.ordered = append(r.ordered, e)
	return e
}

// Counter returns the counter registered under name+labels, creating it
// on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	e := r.lookup(name, renderLabels(labels), help, kindCounter, func(e *entry) {
		e.counter = &Counter{}
	})
	return e.counter
}

// Gauge returns the gauge registered under name+labels, creating it on
// first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	e := r.lookup(name, renderLabels(labels), help, kindGauge, func(e *entry) {
		e.gauge = &Gauge{}
	})
	return e.gauge
}

// Histogram returns the histogram registered under name+labels with the
// given bucket layout, creating it on first use (an existing histogram
// keeps its original buckets).
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	e := r.lookup(name, renderLabels(labels), help, kindHistogram, func(e *entry) {
		e.hist = NewHistogram(buckets)
	})
	return e.hist
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time — the right shape for values another layer already owns (tip
// height, peer count, queue depth). Re-registering the same name+labels
// replaces the function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	e := r.lookup(name, renderLabels(labels), help, kindGaugeFunc, func(e *entry) {})
	r.mu.Lock()
	e.fn = fn
	r.mu.Unlock()
}

// CounterFunc is GaugeFunc with counter semantics (fn must be
// monotonic) — used to expose externally accumulated totals such as the
// wire layer's byte tallies.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	e := r.lookup(name, renderLabels(labels), help, kindCounterFunc, func(e *entry) {})
	r.mu.Lock()
	e.fn = fn
	r.mu.Unlock()
}

// Sample is one flattened metric value (histograms appear as their
// observation count under the bare name).
type Sample struct {
	Name   string
	Labels string
	Value  float64
}

// Gather snapshots every registered instrument. Entries appear in
// registration order; the lab's cluster-wide snapshot and tests consume
// this.
func (r *Registry) Gather() []Sample {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	entries := append([]*entry(nil), r.ordered...)
	r.mu.RUnlock()
	out := make([]Sample, 0, len(entries))
	for _, e := range entries {
		out = append(out, Sample{Name: e.name, Labels: e.labels, Value: e.value()})
	}
	return out
}

// Value sums every instrument registered under name across its label
// sets (histograms contribute their observation count). ok reports
// whether the name is registered at all.
func (r *Registry) Value(name string) (total float64, ok bool) {
	if r == nil {
		return 0, false
	}
	r.mu.RLock()
	entries := append([]*entry(nil), r.ordered...)
	r.mu.RUnlock()
	for _, e := range entries {
		if e.name == name {
			total += e.value()
			ok = true
		}
	}
	return total, ok
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format, grouped by metric name with one HELP/TYPE header each.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	entries := append([]*entry(nil), r.ordered...)
	r.mu.RUnlock()
	// Stable output: sort by name (registration order within a name).
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	var b strings.Builder
	lastName := ""
	for _, e := range entries {
		if e.name != lastName {
			if e.help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", e.name, e.help)
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", e.name, e.kind.prometheus())
			lastName = e.name
		}
		switch e.kind {
		case kindHistogram:
			writeHistogram(&b, e)
		default:
			fmt.Fprintf(&b, "%s%s %s\n", e.name, e.labels, formatValue(e.value()))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram renders one histogram's _bucket/_sum/_count series,
// merging the entry's own labels with the le label.
func writeHistogram(b *strings.Builder, e *entry) {
	base := strings.TrimSuffix(strings.TrimPrefix(e.labels, "{"), "}")
	for _, bc := range e.hist.Buckets() {
		le := "+Inf"
		if !math.IsInf(bc.Le, 1) {
			le = formatValue(bc.Le)
		}
		if base != "" {
			fmt.Fprintf(b, "%s_bucket{%s,le=%q} %d\n", e.name, base, le, bc.Count)
		} else {
			fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", e.name, le, bc.Count)
		}
	}
	fmt.Fprintf(b, "%s_sum%s %s\n", e.name, e.labels, formatValue(e.hist.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", e.name, e.labels, e.hist.Count())
}

// formatValue renders a float the way Prometheus expects: integers
// without an exponent, everything else in shortest round-trip form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
