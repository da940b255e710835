package hashcore

import (
	"encoding/hex"
	"testing"
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

	// The source pipeline must agree with the direct pipeline: this row is
	// hashed through Inspect (generate, render, assemble, run).
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
		t.Run(backend, func(t *testing.T) {
			hashers := map[string]*Hasher{}
			for _, v := range goldenVectors {
				h, ok := hashers[v.name]
				if !ok {
					var err error
					h, err = New(append([]Option{WithBackend(backend)}, v.opts...)...)
					if err != nil {
						t.Fatalf("%s: New: %v", v.name, err)
					}
					hashers[v.name] = h
				}
				hash := h.Hash
				if v.name == "leela-srcpipe" {
					hash = func(input []byte) (Digest, error) {
						ins, err := h.Inspect(input)
						if err != nil {
							return Digest{}, err
						}
						return ins.Digest, nil
					}
				}
				got, err := hash([]byte(v.input))
				if err != nil {
					t.Fatalf("%s/%q: Hash: %v", v.name, v.input, err)
				}
				if hex.EncodeToString(got[:]) != v.want {
					t.Errorf("%s/%q:\n got %x\nwant %s", v.name, v.input, got, v.want)
				}
			}
		})
	}
}

// TestGoldenDigestsRepeat hashes the same vectors twice through each
// hasher, interleaved, so buffer reuse inside pooled sessions is
// exercised with outputs of different sizes between calls.
func TestGoldenDigestsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("repeat pass skipped in -short mode")
	}
	h, err := New()
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		for _, v := range goldenVectors {
			if v.name != "leela-default" {
				continue
			}
			got, err := h.Hash([]byte(v.input))
			if err != nil {
				t.Fatal(err)
			}
			if hex.EncodeToString(got[:]) != v.want {
				t.Errorf("round %d %q: got %x want %s", round, v.input, got, v.want)
			}
		}
	}
}
