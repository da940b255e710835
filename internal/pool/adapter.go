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
// shape the verification pipeline wants: a *hashcore.Session is itself a
// pow.Hasher, so the wrapper only retypes NewSession.
func WrapHasher(h *hashcore.Hasher) pow.SessionHasher {
	return hcSessionHasher{h}
}

type hcSessionHasher struct{ *hashcore.Hasher }

func (a hcSessionHasher) NewSession() pow.Hasher { return a.Hasher.NewSession() }
