package baseline

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

func TestSHA256d(t *testing.T) {
	h := SHA256d{}
	got, err := h.Hash([]byte("abc"))
	if err != nil {
		t.Fatal(err)
	}
	first := sha256.Sum256([]byte("abc"))
	want := sha256.Sum256(first[:])
	if got != want {
		t.Fatalf("SHA256d = %x, want %x", got, want)
	}
	if h.Name() != "sha256d" {
		t.Errorf("Name = %q", h.Name())
	}
}

// RFC 7914 section 12 test vectors.
func TestScryptRFC7914(t *testing.T) {
	tests := []struct {
		name           string
		password, salt string
		n, r, p        int
		want           string
	}{
		{
			"empty-n16", "", "", 16, 1, 1,
			"77d6576238657b203b19ca42c18a0497f16b4844e3074ae8dfdffa3fede21442" +
				"fcd0069ded0948f8326a753a0fc81f17e8d3e0fb2e0d3628cf35e20c38d18906",
		},
		{
			"password-nacl", "password", "NaCl", 1024, 8, 16,
			"fdbabe1c9d3472007856e7190d01e9fe7c6ad7cbc8237830e77376634b373162" +
				"2eaf30d92e22a3886ff109279d9830dac727afb94a83ee6d8360cbdfa2cc0640",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.n > 16 && testing.Short() {
				t.Skip("skipping heavy vector in -short mode")
			}
			got := Key([]byte(tt.password), []byte(tt.salt), tt.n, tt.r, tt.p, 64)
			if hex.EncodeToString(got) != tt.want {
				t.Errorf("scrypt = %x\nwant %s", got, tt.want)
			}
		})
	}
}

func TestScryptHasherDeterministic(t *testing.T) {
	s := NewScrypt(64, 1, 1)
	a, err := s.Hash([]byte("header"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Hash([]byte("header"))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("scrypt hasher nondeterministic")
	}
	c, err := s.Hash([]byte("headeR"))
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatal("different headers produced the same scrypt digest")
	}
	if s.Name() != "scrypt" {
		t.Errorf("Name = %q", s.Name())
	}
}

func TestScryptParameterPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"n-not-pow2":  func() { NewScrypt(1000, 1, 1) },
		"n-too-small": func() { NewScrypt(1, 1, 1) },
		"bad-r":       func() { NewScrypt(16, 0, 1) },
		"bad-p":       func() { NewScrypt(16, 1, 0) },
		"key-bad-n":   func() { Key(nil, nil, 3, 1, 1, 32) },
		"key-bad-dk":  func() { Key(nil, nil, 16, 1, 1, 0) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		})
	}
}

func TestKeyLengths(t *testing.T) {
	for _, dkLen := range []int{1, 32, 33, 64} {
		if got := len(Key([]byte("p"), []byte("s"), 16, 1, 1, dkLen)); got != dkLen {
			t.Errorf("dkLen %d: got %d bytes", dkLen, got)
		}
	}
}

// RFC 4231 HMAC-SHA256 test vectors (cases 1, 2 and 6): the standard
// library's HMAC-SHA256, the PRF under pbkdf2SHA256.
func TestHMACRFC4231(t *testing.T) {
	tests := []struct {
		name      string
		key, data []byte
		want      string
	}{
		{
			"case1",
			bytes.Repeat([]byte{0x0b}, 20),
			[]byte("Hi There"),
			"b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
		},
		{
			"case2",
			[]byte("Jefe"),
			[]byte("what do ya want for nothing?"),
			"5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
		},
		{
			"case6-long-key",
			bytes.Repeat([]byte{0xaa}, 131),
			[]byte("Test Using Larger Than Block-Size Key - Hash Key First"),
			"60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := hmac.New(sha256.New, tt.key)
			m.Write(tt.data)
			if got := hex.EncodeToString(m.Sum(nil)); got != tt.want {
				t.Errorf("HMAC = %s, want %s", got, tt.want)
			}
		})
	}
}

// RFC 7914 section 11 PBKDF2-HMAC-SHA256 test vectors.
func TestPBKDF2RFC7914(t *testing.T) {
	tests := []struct {
		name           string
		password, salt string
		c, dkLen       int
		want           string
	}{
		{
			"passwd-c1", "passwd", "salt", 1, 64,
			"55ac046e56e3089fec1691c22544b605f94185216dde0465e68b9d57c20dacbc" +
				"49ca9cccf179b645991664b39d77ef317c71b845b1e30bd509112041d3a19783",
		},
		{
			"password-c80000", "Password", "NaCl", 80000, 64,
			"4ddcd8f60b98be21830cee5ef22701f9641a4418d04c0414aeff08876b34ab56" +
				"a1d425a1225833549adb841b51c9b3176a272bdebba1d078478f62b397f33c8d",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.c > 1000 && testing.Short() {
				t.Skip("skipping high-iteration vector in -short mode")
			}
			got := pbkdf2SHA256([]byte(tt.password), []byte(tt.salt), tt.c, tt.dkLen)
			if hex.EncodeToString(got) != tt.want {
				t.Errorf("PBKDF2 = %x, want %s", got, tt.want)
			}
		})
	}
}

func TestPBKDF2Lengths(t *testing.T) {
	for _, dkLen := range []int{1, 31, 32, 33, 64, 100} {
		dk := pbkdf2SHA256([]byte("p"), []byte("s"), 2, dkLen)
		if len(dk) != dkLen {
			t.Errorf("dkLen %d: got %d bytes", dkLen, len(dk))
		}
	}
}

func TestPBKDF2PanicsOnBadArgs(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero-iterations": func() { pbkdf2SHA256([]byte("p"), []byte("s"), 0, 32) },
		"zero-length":     func() { pbkdf2SHA256([]byte("p"), []byte("s"), 1, 0) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		})
	}
}

func BenchmarkScrypt1024(b *testing.B) {
	s := NewScrypt(1024, 1, 1)
	header := make([]byte, 80)
	for i := 0; i < b.N; i++ {
		if _, err := s.Hash(header); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSHA256d(b *testing.B) {
	h := SHA256d{}
	header := make([]byte, 80)
	for i := 0; i < b.N; i++ {
		if _, err := h.Hash(header); err != nil {
			b.Fatal(err)
		}
	}
}
