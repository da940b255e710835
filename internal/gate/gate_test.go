package gate

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

func TestSHA256GateMatchesStdlib(t *testing.T) {
	g := SHA256{}
	in := []byte("hashcore gate test")
	if got, want := g.Sum(in), sha256.Sum256(in); got != want {
		t.Fatalf("SHA256 gate = %x, want %x", got, want)
	}
}

func TestGateNames(t *testing.T) {
	tests := []struct {
		g    Gate
		want string
	}{
		{SHA256{}, "sha256"},
	}
	for _, tt := range tests {
		if got := tt.g.Name(); got != tt.want {
			t.Errorf("Name() = %q, want %q", got, tt.want)
		}
	}
}

// FIPS 180-2 SHA-256 vectors against the gate on the digest path.
func TestDigestFIPSVectors(t *testing.T) {
	tests := []struct {
		name string
		in   string
		want string
	}{
		{"empty", "", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
		{"abc", "abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
		{
			"two-block",
			"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
			"248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := SHA256{}.Sum([]byte(tt.in))
			if hex.EncodeToString(got[:]) != tt.want {
				t.Errorf("SHA256.Sum(%q) = %x, want %s", tt.in, got, tt.want)
			}
		})
	}
}

func TestDigestMillionA(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping 1M-byte vector in -short mode")
	}
	got := SHA256{}.Sum(bytes.Repeat([]byte{'a'}, 1_000_000))
	const want = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
	if hex.EncodeToString(got[:]) != want {
		t.Errorf("SHA256.Sum(1M x 'a') = %x, want %s", got, want)
	}
}
