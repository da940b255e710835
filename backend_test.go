package hashcore

import (
	"testing"

	"hashcore/internal/telemetry"
	"hashcore/internal/vm"
)

// newBackendHasher builds a leela hasher pinned to engine b.
func newBackendHasher(t *testing.T, b vm.Backend, reg *telemetry.Registry, j *telemetry.Journal) *Hasher {
	t.Helper()
	h, err := New(WithTelemetry(reg), WithJournal(j))
	if err != nil {
		t.Fatal(err)
	}
	return onBackend(h, b)
}

// TestBackendDigestsIdentical is the facade-level determinism check: the
// same input hashed under every backend setting yields the same digest.
func TestBackendDigestsIdentical(t *testing.T) {
	interp := newBackendHasher(t, vm.BackendInterp, nil, nil)
	native := newBackendHasher(t, vm.BackendNative, nil, nil)
	for _, in := range []string{"", "a", "hashcore block header"} {
		di, err := interp.Hash([]byte(in))
		if err != nil {
			t.Fatal(err)
		}
		dn, err := native.Hash([]byte(in))
		if err != nil {
			t.Fatal(err)
		}
		if di != dn {
			t.Fatalf("digests diverge across backends for %q", in)
		}
	}
}

// TestBackendMetrics checks the hashes_total backend attribution and the
// compile-latency histogram.
func TestBackendMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := newBackendHasher(t, vm.BackendInterp, reg, nil)
	const n = 2
	for i := 0; i < n; i++ {
		if _, err := h.Hash([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := reg.Value("hashcore_hashes_total"); got != n {
		t.Fatalf("hashcore_hashes_total = %v, want %d", got, n)
	}
	if got, _ := reg.Value("hashcore_jit_compile_seconds"); got != 0 {
		t.Fatalf("interpreter backend observed %v compiles, want 0", got)
	}

	if !vm.NativeSupported() {
		return
	}
	reg = telemetry.NewRegistry()
	h = newBackendHasher(t, vm.BackendNative, reg, nil)
	for i := 0; i < n; i++ {
		if _, err := h.Hash([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := reg.Value("hashcore_hashes_total"); got != n {
		t.Fatalf("hashcore_hashes_total = %v, want %d", got, n)
	}
	// Every hash generates (and therefore compiles) a fresh widget.
	if got, _ := reg.Value("hashcore_jit_compile_seconds"); got != n {
		t.Fatalf("hashcore_jit_compile_seconds count = %v, want %d", got, n)
	}
}

// TestSessionsCreatedMetric: every NewSession — a caller's own or a
// refill of Hasher.Hash's session pool — counts one session created.
func TestSessionsCreatedMetric(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := newBackendHasher(t, vm.BackendInterp, reg, nil)
	const n = 3
	for i := 0; i < n; i++ {
		h.NewSession()
	}
	if got, _ := reg.Value("hashcore_sessions_created_total"); got != n {
		t.Fatalf("hashcore_sessions_created_total = %v after %d NewSession calls, want %d", got, n, n)
	}
	if _, err := h.Hash([]byte("x")); err != nil { // the pool is empty: one more
		t.Fatal(err)
	}
	if got, _ := reg.Value("hashcore_sessions_created_total"); got != n+1 {
		t.Fatalf("hashcore_sessions_created_total = %v after a pooled hash, want %d", got, n+1)
	}
}

// TestJournalNoFallbackOnHealthyPath: a working configuration must not
// emit jit_fallback (both on the native path and the explicitly forced
// interpreter, which is a choice, not a fallback).
func TestJournalNoFallbackOnHealthyPath(t *testing.T) {
	for _, b := range []vm.Backend{vm.BackendNative, vm.BackendInterp} {
		j := telemetry.NewJournal(8)
		h := newBackendHasher(t, b, nil, j)
		if _, err := h.Hash([]byte("x")); err != nil {
			t.Fatal(err)
		}
		if evs := j.Events(8); len(evs) != 0 {
			t.Fatalf("backend %v journaled %v on a healthy hash", b, evs)
		}
	}
}
