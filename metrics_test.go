package hashcore

import (
	"reflect"
	"strings"
	"testing"

	"hashcore/internal/telemetry"
	"hashcore/internal/vm"
)

// newMetricHasher builds a leela hasher instrumented through reg.
func newMetricHasher(t *testing.T, reg *telemetry.Registry) *Hasher {
	t.Helper()
	h, err := New(WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// Telemetry must not change digests: the instrumented path wraps the
// same pipeline.
func TestMetricsDigestsUnchanged(t *testing.T) {
	reg := telemetry.NewRegistry()
	plain := newMetricHasher(t, nil)
	instr := newMetricHasher(t, reg)
	for _, in := range []string{"", "a", "hashcore block header"} {
		a, err := plain.Hash([]byte(in))
		if err != nil {
			t.Fatal(err)
		}
		b, err := instr.Hash([]byte(in))
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("digest mismatch for %q with telemetry enabled", in)
		}
	}
}

// Every hash must land in the histograms and counters.
func TestMetricsRecorded(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := newMetricHasher(t, reg)
	const n = 3
	for i := 0; i < n; i++ {
		if _, err := h.Hash([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := reg.Value("hashcore_hash_seconds"); got != n {
		t.Fatalf("hashcore_hash_seconds count = %v, want %d", got, n)
	}
	// The phase histogram carries both label sets; Value sums their
	// counts (one gen + one exec observation per hash).
	if got, _ := reg.Value("hashcore_hash_phase_seconds"); got != 2*n {
		t.Fatalf("hashcore_hash_phase_seconds count = %v, want %d", got, 2*n)
	}
	if got, _ := reg.Value("hashcore_retired_instructions_total"); got <= 0 {
		t.Fatalf("retired instructions = %v", got)
	}
	arch, _ := reg.Value("hashcore_vm_instructions_total")
	if arch <= 0 {
		t.Fatalf("vm instruction streams = %v", arch)
	}
}

// machineGen reads one of the session VM's unexported generation counters
// (loadGen: program loads; fusedGen: the load the interpreter's fused
// stream was last built for). Reflection, because whether that stream
// exists is deliberately not part of vm's API; a renamed field panics here.
func machineGen(s *Session, field string) uint64 {
	return reflect.ValueOf(s.m).Elem().FieldByName(field).Uint()
}

// Telemetry must not make a native hash pay for the interpreter: with a
// registry attached, a native-backed session never builds the fused stream
// (counting a widget's instructions used to, through vm.Machine.CodeSize,
// on every hash of every daemon), while an interpreter-backed one builds
// it exactly once per load — and only the architectural series is
// exported.
func TestTelemetryDoesNotFuseOnNative(t *testing.T) {
	const n = 5
	for _, be := range []vm.Backend{vm.BackendNative, vm.BackendInterp} {
		if be == vm.BackendNative && !vm.NativeSupported() {
			continue
		}
		reg := telemetry.NewRegistry()
		s := newBackendHasher(t, be, reg, nil).NewSession()
		for i := 0; i < n; i++ {
			if _, err := s.Hash([]byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
			if be == vm.BackendInterp && machineGen(s, "fusedGen") != machineGen(s, "loadGen") {
				t.Fatalf("interp: hash %d ran without the fused stream of its load", i)
			}
		}
		loads, fused := machineGen(s, "loadGen"), machineGen(s, "fusedGen")
		if loads != n {
			t.Fatalf("%v: %d loads for %d single-widget hashes", be, loads, n)
		}
		if be == vm.BackendNative && fused != 0 {
			t.Errorf("native: the fused stream was built (for load %d of %d); telemetry must not run the peephole pass", fused, loads)
		}
		if arch, _ := reg.Value("hashcore_vm_instructions_total"); arch <= 0 {
			t.Errorf("%v: no architectural instructions counted", be)
		}
		var text strings.Builder
		if err := reg.WritePrometheus(&text); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(text.String(), `hashcore_vm_instructions_total{stream="arch"}`) ||
			strings.Contains(text.String(), `stream="fused"`) {
			t.Errorf("%v: want the stream=\"arch\" series and no stream=\"fused\" one in:\n%s", be, text.String())
		}
	}
}

// The acceptance criterion: hashing with telemetry enabled must stay
// zero-allocation in the steady state, same as without.
func TestSessionHashZeroAllocWithTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := newMetricHasher(t, reg)
	s := h.NewSession()
	input := []byte("alloc probe")
	// Warm up to high-water buffer capacity.
	for i := 0; i < 8; i++ {
		if _, err := s.Hash(input); err != nil {
			t.Fatal(err)
		}
	}
	n := testing.AllocsPerRun(16, func() {
		if _, err := s.Hash(input); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Fatalf("instrumented Session.Hash allocates %v/op, want 0", n)
	}
}
