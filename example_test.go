package hashcore_test

import (
	"context"
	"fmt"
	"log"

	"hashcore"
)

// A digest, and what one evaluation does: the input picks a seed, the
// seed generates a widget, the widget runs, and its output is hashed.
func Example() {
	// The default hasher targets the Leela profile, as in the paper's
	// experiments.
	h, err := hashcore.New()
	if err != nil {
		log.Fatal(err)
	}
	input := []byte("my block header")
	digest := h.Sum(input)
	fmt.Printf("HashCore(%q) = %x\n", input, digest)
	// Digests are deterministic: any verifier recomputes the same value.
	fmt.Println("recomputed digest matches:", h.Sum(input) == digest)

	info, err := h.Inspect(input)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("seed %x…, widget of %d instructions, %d executed, %d bytes of register snapshots\n",
		info.Seed[:8], info.StaticInstructions, info.DynamicInstructions, info.OutputBytes)

	// A different input selects a different widget.
	other, err := h.Inspect([]byte("another header"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("another header: %d executed, digest %x…\n", other.DynamicInstructions, other.Digest[:8])
	// Output:
	// HashCore("my block header") = 8f5ccd8f59c371b0fae577f6b30714e2946bac602812c09039c5e4fbfb71d874
	// recomputed digest matches: true
	// seed 85658dec7f34e407…, widget of 3704 instructions, 173992 executed, 27880 bytes of register snapshots
	// another header: 200697 executed, digest f4d6841a005c1d59…
}

// HashCore as the proof of work of a header search, and the nonce checked
// the way a validating node would. Each evaluation runs a whole widget, so
// a demo target of 4 leading zero bits (~16 expected evaluations) keeps
// this fast; one worker makes the search deterministic.
func ExampleHasher_Mine() {
	h, err := hashcore.New(hashcore.WithProfile("leela"))
	if err != nil {
		log.Fatal(err)
	}
	target := hashcore.TargetWithZeroBits(4)
	header := []byte("block 42 | prev 00ab..cd | merkle 77ee..ff |")

	res, err := h.Mine(context.Background(), header, target, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("nonce %d after %d attempts, digest %x…\n", res.Nonce, res.Attempts, res.Digest[:8])

	// Verification replays a single hash.
	ok, err := h.VerifyNonce(header, res.Nonce, target)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("verified:", ok)
	// Output:
	// nonce 26 after 27 attempts, digest 00f655eed16249e2…
	// verified: true
}
