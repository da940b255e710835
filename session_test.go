package hashcore

import (
	"encoding/binary"
	"runtime"
	"testing"

	"hashcore/internal/telemetry"
	"hashcore/internal/vm"
)

// TestReusedSessionMatchesFresh: a session carries its VM — written filter,
// written-word table, compiled code — from hash to hash and from one
// image size to another; every digest must equal the one a session that
// has never run anything computes. Two profiles with different working
// sets alternate on each backend, so the reused machines shrink and grow
// between runs.
func TestReusedSessionMatchesFresh(t *testing.T) {
	wide := fastProfile()
	wide.Name = "fast-wide"
	wide.WorkingSet = 32 << 10
	for _, backend := range []vm.Backend{vm.BackendInterp, vm.BackendNative} {
		hashers := []*Hasher{
			onBackend(fastHasher(t), backend),
			onBackend(fastHasher(t, withProfile(wide)), backend),
		}
		// One machine serves both hashers' sessions in turn: swap it in.
		shared := &vm.Machine{}
		shared.SetBackend(backend)
		input := make([]byte, 16)
		for i := 0; i < 24; i++ {
			h := hashers[i%2]
			binary.LittleEndian.PutUint64(input, uint64(i))
			want, err := h.NewSession().Hash(input)
			if err != nil {
				t.Fatal(err)
			}
			reused := h.NewSession()
			reused.m = shared
			got, err := reused.Hash(input)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("backend %v input %d: reused-machine digest %x != fresh %x",
					backend, i, got[:8], want[:8])
			}
		}
	}
}

// TestSessionOwnsNoGoroutine: a session is plain memory — making one and
// hashing on it starts nothing that would need a Close.
func TestSessionOwnsNoGoroutine(t *testing.T) {
	h := fastHasher(t)
	before := runtime.NumGoroutine()
	s := h.NewSession()
	if _, err := s.Hash([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("a session started %d goroutines, want none", n-before)
	}
}

// TestWordsWrittenReported: the sparsity the memory model relies on is
// visible wherever instrumentation is attached — PhaseTimings and the
// registry agree, the count is positive and far below the image's word
// count — and a bare hash's run reports it too: the count is the table's
// insert count, which costs nothing to keep.
func TestWordsWrittenReported(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := newMetricHasher(t, reg)
	s := h.NewSession()
	var pt PhaseTimings
	const n = 3
	for i := 0; i < n; i++ {
		if _, err := s.HashTimed([]byte{byte(i)}, &pt); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := reg.Value("hashcore_vm_words_written_total")
	if got <= 0 || uint64(got) != pt.WordsWritten {
		t.Fatalf("hashcore_vm_words_written_total = %v, PhaseTimings.WordsWritten = %d; want equal and > 0",
			got, pt.WordsWritten)
	}
	if imageWords := uint64(n * h.gen.Profile().WorkingSet / 8); pt.WordsWritten >= imageWords/2 {
		t.Errorf("%d words written of %d: the image is not sparse", pt.WordsWritten, imageWords)
	}
	if pt.FillNs <= 0 || pt.FillNs >= pt.ExecNs {
		t.Errorf("FillNs = %d, want the reset's share of ExecNs = %d", pt.FillNs, pt.ExecNs)
	}

	// The native engine's exits to the per-instruction path are exported
	// too: about one per snapshot interval of retired instructions.
	if bounces, ok := reg.Value("hashcore_vm_slow_bounces_total"); !ok {
		t.Error("hashcore_vm_slow_bounces_total is not registered")
	} else if want := float64(pt.Retired / vm.DefaultSnapshotInterval); s.m.LastRunStats().Backend == vm.BackendNative && (bounces < want-2*n || bounces > want+2*n) {
		t.Errorf("hashcore_vm_slow_bounces_total = %v over %d retired instructions, want about %v", bounces, pt.Retired, want)
	}

	bare := newMetricHasher(t, nil).NewSession()
	if _, err := bare.Hash([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if st := bare.m.LastRunStats(); st.WordsWritten == 0 || st.ResetNs <= 0 || st.TableSlots < int(2*st.WordsWritten) {
		t.Errorf("bare hash's memory statistics: %+v, want words written, a reset time and a table over twice the words", st)
	}
}
