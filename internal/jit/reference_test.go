//go:build amd64 && linux

package jit

import (
	"bytes"

	"hashcore/internal/prog"
)

// encodeProgram is the reference for stampProgram: the whole program
// lowered by the encoder alone, piece by piece in the same order and under
// the same register assignment (c.regMap), with no template involved. It
// returns the bytes stampProgram must leave in c.buf.
func (c *Compiler) encodeProgram(p *prog.Program) ([]byte, error) {
	nb := len(p.Blocks)
	c.reset(nb)
	c.emitPrologue()
	c.emitMemRoutines()
	for bi, b := range p.Blocks {
		c.heads[bi] = int32(c.pos)
		c.emitHead(bi, int32(b.Len))
		for i := b.Start; i < b.Start+b.Len; i++ {
			c.ensure(regionMax)
			if err := c.emitInstr(&p.Code[i], nb); err != nil {
				return nil, err
			}
		}
	}
	if nb > 0 && !endsUnconditional(p, nb-1) {
		c.emitFallOff(nb)
	}
	slowTail := c.pos
	c.emitSlowTail()
	for bi, b := range p.Blocks {
		c.slow[bi] = int32(c.pos)
		c.emitStub(bi, int32(b.Len), slowTail)
	}
	epiPos := int32(c.pos)
	c.emitEpilogue()
	if err := c.resolve(epiPos); err != nil {
		return nil, err
	}
	return bytes.Clone(c.buf[:c.pos]), nil
}
