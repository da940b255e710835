//go:build amd64 && linux

package jit

import "hashcore/internal/prog"

// What the external tests (package jit_test, which may import the widget
// generator where this package's own tests cannot) need of the internals.

// EncodeReference assigns registers for p and lowers it with the encoder
// alone (see encodeProgram): the bytes Compile must install.
func (c *Compiler) EncodeReference(p *prog.Program) ([]byte, error) {
	c.allocRegs(p)
	return c.encodeProgram(p)
}

// Text returns the installed code.
func (code *Code) Text() []byte { return code.text }

// Encoded returns how many instructions of the program c compiled last
// the encoder lowered because they have no template.
func (c *Compiler) Encoded() int { return c.encoded }

// FirstDifference renders where two code images first differ.
var FirstDifference = firstDifference
