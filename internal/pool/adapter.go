package pool

import (
	"hashcore"
	"hashcore/internal/pow"
)

// Hasher is the digest-function shape the pool verifies shares with —
// identical to pow.Hasher. Implementations that also satisfy
// pow.SessionHasher get one private session per verification worker,
// which is what keeps the steady-state verification path allocation-free.
type Hasher = pow.Hasher

// WrapHasher adapts the public hashcore.Hasher into the session-minting
// shape the verification pipeline wants. (*hashcore.Hasher already
// satisfies Hasher directly; the wrapper only adds NewSession.)
func WrapHasher(h *hashcore.Hasher) pow.SessionHasher {
	return hcSessionHasher{h}
}

type hcSessionHasher struct{ h *hashcore.Hasher }

func (a hcSessionHasher) Hash(header []byte) ([32]byte, error) { return a.h.Hash(header) }
func (a hcSessionHasher) Name() string                         { return a.h.Name() }
func (a hcSessionHasher) NewSession() pow.Hasher {
	return hcSession{s: a.h.NewSession(), name: a.h.Name()}
}

type hcSession struct {
	s    *hashcore.Session
	name string
}

func (a hcSession) Hash(header []byte) ([32]byte, error) { return a.s.Hash(header) }
func (a hcSession) Name() string                         { return a.name }
