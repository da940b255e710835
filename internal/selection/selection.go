// Package selection implements the paper's §VI-A alternative to runtime
// widget generation: a fixed pool of pre-generated widgets from which each
// hash seed selects one.
//
// The paper weighs the two designs: selection saves the generation cost on
// every hash ("widget selection is far less computationally intensive than
// widget generation") at the price of storage ("the widget pool ... could
// consist of several gigabytes worth of code") and ASIC exposure ("custom
// ASICs could be constructed for some subset of the widget pool"). To keep
// a selected widget's output seed-dependent (otherwise all pool outputs
// could be precomputed once), the seed overrides the widget's
// scratch-memory content seed before execution.
package selection

import (
	"encoding/binary"
	"fmt"

	"hashcore/internal/gate"
	"hashcore/internal/perfprox"
	"hashcore/internal/profile"
	"hashcore/internal/prog"
	"hashcore/internal/rng"
	"hashcore/internal/vm"
)

// Pool is a fixed widget pool with seed-driven selection. It is immutable
// after construction and safe for concurrent use.
type Pool struct {
	widgets []*prog.Program
	storage int
}

// NewPool pre-generates size widgets for the profile from a master seed,
// with the generator's default parameters. The per-widget seeds are
// derived deterministically, so two pools built with the same arguments
// are identical.
func NewPool(prof *profile.Profile, size int, masterSeed uint64) (*Pool, error) {
	if size < 1 || size > 1<<20 {
		return nil, fmt.Errorf("selection: pool size %d out of range", size)
	}
	gen, err := perfprox.NewGenerator(prof, perfprox.Params{})
	if err != nil {
		return nil, fmt.Errorf("selection: %w", err)
	}
	sm := rng.NewSplitMix64(masterSeed)
	p := &Pool{widgets: make([]*prog.Program, 0, size)}
	for i := 0; i < size; i++ {
		var seed perfprox.Seed
		for off := 0; off < len(seed); off += 8 {
			binary.BigEndian.PutUint64(seed[off:], sm.Next())
		}
		w, err := gen.Generate(seed)
		if err != nil {
			return nil, fmt.Errorf("selection: generating pool widget %d: %w", i, err)
		}
		p.storage += len(w.Encode())
		p.widgets = append(p.widgets, w)
	}
	return p, nil
}

// Size returns the number of widgets in the pool.
func (p *Pool) Size() int { return len(p.widgets) }

// StorageBytes returns the total encoded size of the pool — the storage
// cost axis of the paper's generation-vs-selection trade-off.
func (p *Pool) StorageBytes() int { return p.storage }

// Select returns the pool index chosen by a hash seed.
func (p *Pool) Select(seed perfprox.Seed) int {
	return int(binary.BigEndian.Uint32(seed[0:4]) % uint32(len(p.widgets)))
}

// Instance returns the widget a seed selects, memory-reseeded exactly as
// Hash would execute it. Exposed so the experiment harness can time
// selection and execution separately.
func (p *Pool) Instance(seed perfprox.Seed) *prog.Program {
	idx := p.Select(seed)
	// Copy the widget with a seed-dependent memory initialization so the
	// output cannot be precomputed per pool entry.
	w := *p.widgets[idx]
	w.MemSeed = binary.LittleEndian.Uint64(seed[8:16])
	return &w
}

// Hash computes the selection-variant PoW: s = G(x) picks a widget, the
// widget runs with its memory reseeded from s, and the digest is
// G(s || output), with SHA-256 as G. Satisfies pow.Hasher.
func (p *Pool) Hash(header []byte) ([32]byte, error) {
	s := gate.SHA256{}.Sum(header)
	w := p.Instance(perfprox.Seed(s))
	res, err := vm.Run(w, vm.Params{}, nil)
	if err != nil {
		return [32]byte{}, err
	}
	buf := make([]byte, 0, len(s)+len(res.Output))
	buf = append(buf, s[:]...)
	buf = append(buf, res.Output...)
	return gate.SHA256{}.Sum(buf), nil
}

// Name returns "hashcore-select".
func (p *Pool) Name() string { return "hashcore-select" }
