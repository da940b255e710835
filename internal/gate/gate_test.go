package gate

import (
	"crypto/sha256"
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
