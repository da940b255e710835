package perfprox

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"hashcore/internal/workload"
)

// pinnedGeneration holds, per profile, the SHA-256 over Program.Encode() of
// the widgets generated for seedFromUint64(0..255), concatenated in seed
// order. The constants were captured before the generator was rewritten as
// a flat emit loop; they pin generation alone, so on a platform whose
// digests disagree this test says whether the generator or the engine
// drifted.
var pinnedGeneration = map[string]string{
	"deepsjeng": "5e44948cbdebc77f63253578809e117bc4cdd1a2fbe43734d8e11f09491a646d",
	"exchange2": "cc4f1cba2a074cf8aca0651ce5cab4dc60a323c16161cd9e87a15f121d3504ac",
	"lbm":       "801647c8d4f67396df42429008599cf7c7f3253dd36dc478202bf44a789dd79b",
	"leela":     "9b787a0187a954339b19d1aa00b4f199cb7bb3d0cef80ac6ae4e1fb580081c36",
	"mcf":       "3629231c1e800db81ec69c83d32490830fd169cce4ad2ec1da0a3a5d79783eaf",
	"x264":      "b828f416e62f74f8ae905d6f6a4c787cfea1e0d9c2b6a533ce653ead60d09ad3",
}

func TestGeneratedProgramsPinned(t *testing.T) {
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			w, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			g, err := NewGenerator(w.Profile, Params{})
			if err != nil {
				t.Fatal(err)
			}
			var sc Scratch
			h := sha256.New()
			for s := uint64(0); s < 256; s++ {
				p, err := g.GenerateInto(seedFromUint64(s), &sc)
				if err != nil {
					t.Fatal(err)
				}
				h.Write(p.Encode())
			}
			got := hex.EncodeToString(h.Sum(nil))
			if want := pinnedGeneration[name]; got != want {
				t.Errorf("%s: generated programs hash to %s, pinned %s", name, got, want)
			}
		})
	}
}
