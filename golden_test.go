package hashcore

import (
	"crypto/sha256"
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
// Each case is (constructor options, input, the SHA-256 of the widget
// program's HCW1 encoding, expected hex digest). The widget column and
// goldenSeeds were captured later, from the same pipeline, so that a
// platform whose digests disagree learns the first stage that drifted:
// the gate, widget generation, or execution.
var goldenVectors = []struct {
	name   string
	opts   []Option
	input  string
	widget string
	want   string
}{
	{"leela-default", nil, "", "79e569ffae4e80c3a06c8eda850a7f08cccdddab50eb8209947c0330f7f42a01",
		"451387ab376fe735306fc345ad519ec13dd82e42fffaec8698ccca48b7bc14f0"},
	{"leela-default", nil, "abc", "d0f9018ed1a0ae252bb9f56f2130f50c66ffd9d94de4ed7e7b666b347d48ebec",
		"5e1b1d3982d3cd7c62ed235f77441bd2725f59f93017dfd77c150e3a8e07aa12"},
	{"leela-default", nil, "hashcore golden vector 2026", "42fd6397495c144bb46f0d84f2fed2c2ac9c495debbc68b51e7111badc093c7a",
		"ef2c4e98c6f365abca4e7c0f377e789b21f334d5a86a8b2816f753edee8a4c6d"},
	{"leela-default", nil, "block header \x00\x01\x02\x03", "bf4523c389dfd17002a0e9630f74d7fee2a6b9dab1ba1f2f905de92aac5bfe9e",
		"bb1b45da29f87ca90aab877eaf7e11b841c9f75394baa762ee2fa1a6652a24d5"},

	{"exchange2-default", []Option{WithProfile("exchange2")}, "", "b6eaad8cdf90c129857be663927153c46e9f7fe8dd11fcbc6395cc121528e435",
		"b238ee801c207219c02a68d66e741d874df4bc2237bdda459e52b9551ac66887"},
	{"exchange2-default", []Option{WithProfile("exchange2")}, "abc", "eaae298673f4bc3a1f4282023aa90edb0c36c9bb72fd4f6c8af8e8edc4230fd4",
		"925f7bd794940ec5670f4b6cff233bd8e6e2b03601ff1275ee7f111e2ce9afe9"},
	{"exchange2-default", []Option{WithProfile("exchange2")}, "hashcore golden vector 2026", "ed61ea2840283e57dbea6833c7e52607267b301186fae9560bb34e4b0fe772b0",
		"dbe675ef5937143bf0be8ebd492d67e01b9433daf7508f17c4ff5753e977e625"},
	{"exchange2-default", []Option{WithProfile("exchange2")}, "block header \x00\x01\x02\x03", "b845f5acaa4ba5b418a3d5c093a2d9189e01b327f6a793ed833a348c062ba42e",
		"103fefdf9d3b6ba6cd579d11313241e19be424d354ae445f6d767cb9ec83435c"},

	{"lbm-default", []Option{WithProfile("lbm")}, "", "a0020e9a49153616f10b0a384e9d60c25d6536e93381d71a02c330cc554a23cd",
		"e2fedfeb03aeb15c2e9e7aa0f43948524bbfcb95a754c4d72157f5a4e48723ec"},
	{"lbm-default", []Option{WithProfile("lbm")}, "abc", "117d760c26c378f8b0245f44b5b3adac0bc4dc8fa26d38501880e067cd7e5405",
		"892264855394cafd8e4e422eaff4651cc19491bab41dac0c67988a8db5d9394b"},
	{"lbm-default", []Option{WithProfile("lbm")}, "hashcore golden vector 2026", "c5d346d6257779c5d72b1cdb8982162cd14ce1a5cd045bbe2401f47726d3c42f",
		"c9f2dd44ffb3d90c44e5d6b48736547f22221bed19ef238150f959f9a18e2161"},
	{"lbm-default", []Option{WithProfile("lbm")}, "block header \x00\x01\x02\x03", "b2701d8ff5255d47cc50bf9fa6ac2a47fb9612d007fb00844c56d7fe696c9cd7",
		"d689361b54ab6200f9ad59b2455e5226624e86aace391bd9b58a34ea922994f8"},

	// The other three profiles, captured later from the interpreter on the
	// pipeline the rows above had long been pinning; x264's widgets are a
	// third vector instructions.
	{"x264-default", []Option{WithProfile("x264")}, "", "e2d1f8271fbae53f50273e014fcf37ae700e18beae7cbe6a805b1cc3349c38dd",
		"ab0db59163e92a449cc948867da3c0866f58c9f8aebb0115e15243cf1040fc7f"},
	{"x264-default", []Option{WithProfile("x264")}, "abc", "08a117a9d8277e323cc5f36355b5c07e4e48e1bcf060bf44403a28ed683508f5",
		"63deb03a0d7780627c6584a38d21ee7b7473474c1b348839152f37c6752196fb"},
	{"x264-default", []Option{WithProfile("x264")}, "hashcore golden vector 2026", "7915e3c8db45330bd997a11df110412bfdd3f1a990593ed9b8295dd155b1b3ff",
		"5d0e45aacb358d8c58ee7fa9bfb404183b4c493d52f9d5e8df86719164f369f4"},
	{"x264-default", []Option{WithProfile("x264")}, "block header \x00\x01\x02\x03", "e1a570478cbbbb52d54445c8e2344127e264686394712d53ef1aa71472b19f44",
		"321058e40b5c0af6d35d15dfacb4d6d812058d01b1fe043e7da402f4ac059e44"},

	{"mcf-default", []Option{WithProfile("mcf")}, "", "1298b745764943134e0fdb44cba105ca47485e495545a831cfdbe15aa569ca11",
		"9dc2abef50f11996cced6559111833b9a41d6598d292dc278b9b07afd09eecf7"},
	{"mcf-default", []Option{WithProfile("mcf")}, "abc", "948e5a0c672b9105eb8a853791c79e60e21d54578428f94fee801dddfdb13cfb",
		"823037c4c189327c337cfc382309de27bb801a28102568d06a65e4cb3d7a2031"},
	{"mcf-default", []Option{WithProfile("mcf")}, "hashcore golden vector 2026", "9b8c551c9d66b756fc3210c33bf85625bee357c154250d2d2385eef238194b7e",
		"59522dd012e8b4acc79d9fe98da50874563db7ab1fe77b62dc96330cde9c78fd"},
	{"mcf-default", []Option{WithProfile("mcf")}, "block header \x00\x01\x02\x03", "e6e04b3ac6089fdc9ea0464ba6a26c46d79db60aa812a29846b5a84059a81194",
		"74cb38b7a8f6b2b3737da9ff9b61bf93ca5d7f5c1449da70351561f2af098356"},

	{"deepsjeng-default", []Option{WithProfile("deepsjeng")}, "", "2aab6c23e6b75a146a78d75ee5a9cc7f0b7d4552996ea1b08f749b86b870365d",
		"28fa269cd035f0430be2b34872d2c2663f8a59f6c4775a2d9e9d23368d8af157"},
	{"deepsjeng-default", []Option{WithProfile("deepsjeng")}, "abc", "f4d53fc3e69f321d826601d69465231810d2d4e9a9bfb0a3c01e89ad52e7b696",
		"36a686e1100485ed8f0882a19386758f04865e328d8e460fada6b5092803a024"},
	{"deepsjeng-default", []Option{WithProfile("deepsjeng")}, "hashcore golden vector 2026", "0b1cb7aea32173a9e204a45e65acae85ee4429f5e9ea74f2b05cc826854c5f46",
		"9915fb535787414476dc108db7eb46c6941cbf1150ef69498a8379feb711e11f"},
	{"deepsjeng-default", []Option{WithProfile("deepsjeng")}, "block header \x00\x01\x02\x03", "104b0f9e60d062bfd6538a1b768d2ec9cd06fd7399d9e77acece2cc7c74ba815",
		"d5ed9ce09848575a57d6ff5fb3ebc88fd56b6e2e0655feb5d50ef95f8241da88"},

	// Chained widgets and non-default snapshot intervals exercise the
	// session reuse paths (output buffers of different sizes per widget).
	{"leela-widgets2", []Option{WithWidgets(2)}, "abc", "d0f9018ed1a0ae252bb9f56f2130f50c66ffd9d94de4ed7e7b666b347d48ebec",
		"c743217fd858afc82f5b04da52890738ac3f82f9a4900a94451e29f899baf8e6"},
	{"leela-snap512", []Option{withSnapshotInterval(512)}, "abc", "d0f9018ed1a0ae252bb9f56f2130f50c66ffd9d94de4ed7e7b666b347d48ebec",
		"1944269f2b0021954c2a97fde257a565c015b8b44c735b69e0fca3fc2b794784"},
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

// goldenSeeds holds the gate seed G(x) of each golden input: the first
// stage of every row, whatever its profile.
var goldenSeeds = map[string]string{
	"":                              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"abc":                           "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
	"hashcore golden vector 2026":   "787f89c0d600a42909ad67520390e2e18520a1ab3a2483c1b36ed2418eef7096",
	"block header \x00\x01\x02\x03": "c0902751329aa71c16dbaa607cf4cfbd73f483f030b13ef21249f9e3067bacf9",
}

// replayGolden replays every golden vector rounds times under backend, on
// one hasher per vector name, stage by stage: the seed Inspect reports,
// the program Widget returns, then Hash's digest. A row's failure names
// the first stage that differs. It also fails if a native hasher fell
// back to the interpreter for any widget.
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
			in := []byte(v.input)
			ins, err := h.Inspect(in)
			if err != nil {
				t.Fatalf("%s/%q: Inspect: %v", v.name, v.input, err)
			}
			if got, want := hex.EncodeToString(ins.Seed[:]), goldenSeeds[v.input]; got != want {
				t.Errorf("round %d %s/%q: the seed differs:\n got %s\nwant %s", round, v.name, v.input, got, want)
				continue
			}
			p, err := h.Widget(in)
			if err != nil {
				t.Fatalf("%s/%q: Widget: %v", v.name, v.input, err)
			}
			if sum := sha256.Sum256(p.Encode()); hex.EncodeToString(sum[:]) != v.widget {
				t.Errorf("round %d %s/%q: the seed matches, the widget program differs:\n got %x\nwant %s", round, v.name, v.input, sum, v.widget)
				continue
			}
			got, err := h.Hash(in)
			if err != nil {
				t.Fatalf("%s/%q: Hash: %v", v.name, v.input, err)
			}
			if hex.EncodeToString(got[:]) != v.want {
				t.Errorf("round %d %s/%q: seed and widget program match, the digest differs (execution):\n got %x\nwant %s", round, v.name, v.input, got, v.want)
			}
		}
	}
}
