//go:build amd64 && linux

package jit

import "hashcore/internal/prog"

// What the external tests (package jit_test, which may import the widget
// generator where this package's own tests cannot) need of the internals.

// EncodeReference lowers p with the encoder alone (see encodeProgram):
// the bytes Compile must install.
func (c *Compiler) EncodeReference(p *prog.Program) ([]byte, error) {
	return c.encodeProgram(p)
}

// Text returns the installed code.
func (code *Code) Text() []byte { return code.text }

// FirstDifference renders where two code images first differ.
var FirstDifference = firstDifference
