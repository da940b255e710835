package core

import (
	"time"

	"hashcore/internal/telemetry"
	"hashcore/internal/vm"
)

// hashMetrics is the hashing hot loop's instrument set, resolved once at
// Func construction. All fields are nil-safe, so a Func built without a
// registry carries a nil *hashMetrics and pays a single predictable
// branch per hash.
type hashMetrics struct {
	// hashSeconds is the end-to-end H(x) latency; genSeconds/execSeconds
	// split the widget pipeline along the PhaseTimings boundary
	// (generation vs VM load+run; the gate is the remainder).
	hashSeconds *telemetry.Histogram
	genSeconds  *telemetry.Histogram
	execSeconds *telemetry.Histogram
	// retired counts executed widget instructions (architectural).
	retired *telemetry.Counter
	// archInstrs accumulates the static length of every loaded widget,
	// in architectural instructions. (How many slots the interpreter
	// dispatches for them is a property of an engine most hashes never
	// run; the benchmark reads it from vm.Machine.CodeSize.)
	archInstrs *telemetry.Counter
	// wordsWritten counts the distinct scratch-memory words widgets
	// stored to: the touched part of the never-materialized image.
	wordsWritten *telemetry.Counter
	// jitCompileSeconds is the per-widget native compilation latency
	// (observed only on runs that actually compiled).
	jitCompileSeconds *telemetry.Histogram
	// slowBounces counts native runs' exits to the interpreter's
	// per-instruction path (one block carried over a snapshot or budget
	// boundary each): a cause of slow hashes the phase split cannot show.
	slowBounces *telemetry.Counter
	// hashesNative/hashesInterp count hashes by the engine that executed
	// them, so a fleet dashboard shows at a glance which backend is live.
	hashesNative *telemetry.Counter
	hashesInterp *telemetry.Counter
}

// newHashMetrics resolves the instrument set against reg (nil reg = nil
// metrics = disabled).
func newHashMetrics(reg *telemetry.Registry) *hashMetrics {
	if reg == nil {
		return nil
	}
	return &hashMetrics{
		hashSeconds: reg.Histogram("hashcore_hash_seconds",
			"End-to-end HashCore hash latency.", telemetry.HashLatencyBuckets),
		genSeconds: reg.Histogram("hashcore_hash_phase_seconds",
			"Per-hash widget pipeline latency split by phase.",
			telemetry.HashLatencyBuckets, telemetry.Label{Key: "phase", Value: "gen"}),
		execSeconds: reg.Histogram("hashcore_hash_phase_seconds",
			"Per-hash widget pipeline latency split by phase.",
			telemetry.HashLatencyBuckets, telemetry.Label{Key: "phase", Value: "exec"}),
		retired: reg.Counter("hashcore_retired_instructions_total",
			"Widget instructions retired by the VM."),
		archInstrs: reg.Counter("hashcore_vm_instructions_total",
			"Static lengths of loaded widgets, in architectural instructions.",
			telemetry.Label{Key: "stream", Value: "arch"}),
		wordsWritten: reg.Counter("hashcore_vm_words_written_total",
			"Distinct scratch-memory words stored to by executed widgets."),
		jitCompileSeconds: reg.Histogram("hashcore_jit_compile_seconds",
			"Per-widget native code compilation latency.",
			telemetry.QueueLatencyBuckets),
		slowBounces: reg.Counter("hashcore_vm_slow_bounces_total",
			"Blocks a native run handed to the interpreter's per-instruction path."),
		hashesNative: reg.Counter("hashcore_hashes_total",
			"Hashes computed, by execution backend.",
			telemetry.Label{Key: "backend", Value: "native"}),
		hashesInterp: reg.Counter("hashcore_hashes_total",
			"Hashes computed, by execution backend.",
			telemetry.Label{Key: "backend", Value: "interp"}),
	}
}

// observeHash records one successful hash: total wall time plus the
// gen/exec split and retired-instruction delta accumulated in t since
// the (genNs, execNs, retired) baseline captured at the start of the
// call, attributed to the backend that executed it. Allocation-free.
func (hm *hashMetrics) observeHash(start time.Time, t *PhaseTimings, genNs, execNs int64, retired uint64, backend vm.Backend) {
	hm.hashSeconds.Observe(time.Since(start).Seconds())
	hm.genSeconds.Observe(float64(t.GenNs-genNs) / 1e9)
	hm.execSeconds.Observe(float64(t.ExecNs-execNs) / 1e9)
	hm.retired.Add(t.Retired - retired)
	if backend == vm.BackendNative {
		hm.hashesNative.Inc()
	} else {
		hm.hashesInterp.Inc()
	}
}
