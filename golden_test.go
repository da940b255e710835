package hashcore

import (
	"encoding/hex"
	"testing"

	"hashcore/internal/telemetry"
)

// Golden digest vectors captured from the pre-optimization pipeline
// (seed commit 2b8d187 plus go.mod). The zero-allocation execution path
// must reproduce these bit-for-bit: the VM doc comment's determinism
// contract is what makes HashCore digests verifiable, so any perf work
// that shifts a single output bit is wrong, not fast.
//
// Each case is (constructor options, input, expected hex digest).
var goldenVectors = []struct {
	name  string
	opts  []Option
	input string
	want  string
}{
	{"leela-default", nil, "", "451387ab376fe735306fc345ad519ec13dd82e42fffaec8698ccca48b7bc14f0"},
	{"leela-default", nil, "abc", "5e1b1d3982d3cd7c62ed235f77441bd2725f59f93017dfd77c150e3a8e07aa12"},
	{"leela-default", nil, "hashcore golden vector 2026", "ef2c4e98c6f365abca4e7c0f377e789b21f334d5a86a8b2816f753edee8a4c6d"},
	{"leela-default", nil, "block header \x00\x01\x02\x03", "bb1b45da29f87ca90aab877eaf7e11b841c9f75394baa762ee2fa1a6652a24d5"},

	{"exchange2-default", []Option{WithProfile("exchange2")}, "", "b238ee801c207219c02a68d66e741d874df4bc2237bdda459e52b9551ac66887"},
	{"exchange2-default", []Option{WithProfile("exchange2")}, "abc", "925f7bd794940ec5670f4b6cff233bd8e6e2b03601ff1275ee7f111e2ce9afe9"},
	{"exchange2-default", []Option{WithProfile("exchange2")}, "hashcore golden vector 2026", "dbe675ef5937143bf0be8ebd492d67e01b9433daf7508f17c4ff5753e977e625"},
	{"exchange2-default", []Option{WithProfile("exchange2")}, "block header \x00\x01\x02\x03", "103fefdf9d3b6ba6cd579d11313241e19be424d354ae445f6d767cb9ec83435c"},

	{"lbm-default", []Option{WithProfile("lbm")}, "", "e2fedfeb03aeb15c2e9e7aa0f43948524bbfcb95a754c4d72157f5a4e48723ec"},
	{"lbm-default", []Option{WithProfile("lbm")}, "abc", "892264855394cafd8e4e422eaff4651cc19491bab41dac0c67988a8db5d9394b"},
	{"lbm-default", []Option{WithProfile("lbm")}, "hashcore golden vector 2026", "c9f2dd44ffb3d90c44e5d6b48736547f22221bed19ef238150f959f9a18e2161"},
	{"lbm-default", []Option{WithProfile("lbm")}, "block header \x00\x01\x02\x03", "d689361b54ab6200f9ad59b2455e5226624e86aace391bd9b58a34ea922994f8"},

	// The other three profiles, captured later from the interpreter on the
	// pipeline the rows above had long been pinning; x264's widgets are a
	// third vector instructions.
	{"x264-default", []Option{WithProfile("x264")}, "", "ab0db59163e92a449cc948867da3c0866f58c9f8aebb0115e15243cf1040fc7f"},
	{"x264-default", []Option{WithProfile("x264")}, "abc", "63deb03a0d7780627c6584a38d21ee7b7473474c1b348839152f37c6752196fb"},
	{"x264-default", []Option{WithProfile("x264")}, "hashcore golden vector 2026", "5d0e45aacb358d8c58ee7fa9bfb404183b4c493d52f9d5e8df86719164f369f4"},
	{"x264-default", []Option{WithProfile("x264")}, "block header \x00\x01\x02\x03", "321058e40b5c0af6d35d15dfacb4d6d812058d01b1fe043e7da402f4ac059e44"},

	{"mcf-default", []Option{WithProfile("mcf")}, "", "9dc2abef50f11996cced6559111833b9a41d6598d292dc278b9b07afd09eecf7"},
	{"mcf-default", []Option{WithProfile("mcf")}, "abc", "823037c4c189327c337cfc382309de27bb801a28102568d06a65e4cb3d7a2031"},
	{"mcf-default", []Option{WithProfile("mcf")}, "hashcore golden vector 2026", "59522dd012e8b4acc79d9fe98da50874563db7ab1fe77b62dc96330cde9c78fd"},
	{"mcf-default", []Option{WithProfile("mcf")}, "block header \x00\x01\x02\x03", "74cb38b7a8f6b2b3737da9ff9b61bf93ca5d7f5c1449da70351561f2af098356"},

	{"deepsjeng-default", []Option{WithProfile("deepsjeng")}, "", "28fa269cd035f0430be2b34872d2c2663f8a59f6c4775a2d9e9d23368d8af157"},
	{"deepsjeng-default", []Option{WithProfile("deepsjeng")}, "abc", "36a686e1100485ed8f0882a19386758f04865e328d8e460fada6b5092803a024"},
	{"deepsjeng-default", []Option{WithProfile("deepsjeng")}, "hashcore golden vector 2026", "9915fb535787414476dc108db7eb46c6941cbf1150ef69498a8379feb711e11f"},
	{"deepsjeng-default", []Option{WithProfile("deepsjeng")}, "block header \x00\x01\x02\x03", "d5ed9ce09848575a57d6ff5fb3ebc88fd56b6e2e0655feb5d50ef95f8241da88"},

	// The source pipeline must agree with the direct pipeline: this row is
	// hashed through hashViaSource (generate, render, assemble, run).
	{"leela-srcpipe", nil, "abc", "5e1b1d3982d3cd7c62ed235f77441bd2725f59f93017dfd77c150e3a8e07aa12"},
	// Chained widgets and non-default snapshot intervals exercise the
	// session reuse paths (output buffers of different sizes per widget).
	{"leela-widgets2", []Option{WithWidgets(2)}, "abc", "c743217fd858afc82f5b04da52890738ac3f82f9a4900a94451e29f899baf8e6"},
	{"leela-snap512", []Option{WithSnapshotInterval(512)}, "abc", "1944269f2b0021954c2a97fde257a565c015b8b44c735b69e0fca3fc2b794784"},
}

// goldenBackends is the set of execution engines every golden vector is
// replayed through. The digests were captured from the interpreter; the
// native backend must reproduce them bit-for-bit, so the same table runs
// under both (native skipped on platforms without the code generator).
func goldenBackends(t *testing.T) []string {
	t.Helper()
	if !NativeBackendSupported() {
		t.Log("native backend unsupported on this platform; interp only")
		return []string{"interp"}
	}
	return []string{"interp", "native"}
}

// TestGoldenDigests locks the determinism contract across the
// zero-allocation refactor and the native code backend: every digest must
// match the value the pre-refactor interpreter pipeline produced, under
// every execution engine.
func TestGoldenDigests(t *testing.T) {
	for _, backend := range goldenBackends(t) {
		t.Run(backend, func(t *testing.T) { replayGolden(t, backend, 1) })
	}
}

// TestGoldenDigestsRepeat hashes the same vectors twice through each
// hasher, interleaved, so buffer reuse inside pooled sessions is
// exercised with outputs of different sizes between calls.
func TestGoldenDigestsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("repeat pass skipped in -short mode")
	}
	for _, backend := range goldenBackends(t) {
		t.Run(backend, func(t *testing.T) { replayGolden(t, backend, 2) })
	}
}

// replayGolden hashes every golden vector rounds times under backend, on
// one hasher per vector name, and fails if a native hasher fell back to
// the interpreter for any widget.
func replayGolden(t *testing.T, backend string, rounds int) {
	hashers := map[string]*Hasher{}
	journal := telemetry.NewJournal(8)
	defer func() {
		if evs := journal.Events(8); len(evs) != 0 {
			t.Errorf("%s backend journaled %v", backend, evs)
		}
	}()
	for round := 0; round < rounds; round++ {
		for _, v := range goldenVectors {
			h, ok := hashers[v.name]
			if !ok {
				var err error
				h, err = New(append([]Option{WithBackend(backend), WithJournal(journal)}, v.opts...)...)
				if err != nil {
					t.Fatalf("%s: New: %v", v.name, err)
				}
				hashers[v.name] = h
			}
			hash := h.Hash
			if v.name == "leela-srcpipe" {
				hash = func(input []byte) (Digest, error) { return hashViaSource(h, input) }
			}
			got, err := hash([]byte(v.input))
			if err != nil {
				t.Fatalf("%s/%q: Hash: %v", v.name, v.input, err)
			}
			if hex.EncodeToString(got[:]) != v.want {
				t.Errorf("round %d %s/%q:\n got %x\nwant %s", round, v.name, v.input, got, v.want)
			}
		}
	}
}
