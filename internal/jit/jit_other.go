//go:build !amd64 || !linux

package jit

import "hashcore/internal/prog"

// Supported reports whether the native backend can run on this platform.
func Supported() bool { return false }

// Compiler is a stub on platforms without a native backend.
type Compiler struct{}

// NewCompiler returns a stub compiler whose Compile always fails with
// ErrUnsupported.
func NewCompiler() *Compiler { return &Compiler{} }

// Compile always fails on this platform.
func (c *Compiler) Compile(p *prog.Program) (*Code, error) { return nil, ErrUnsupported }

// Code is a stub on platforms without a native backend; no value of it is
// ever constructed.
type Code struct{}

// Size returns the generated machine-code size in bytes.
func (code *Code) Size() int { return 0 }

// LoadRoutine, StoreRoutine and BlockSize describe code that never exists
// on this platform.
func (code *Code) LoadRoutine() []byte  { return nil }
func (code *Code) StoreRoutine() []byte { return nil }
func (code *Code) BlockSize(bi int) int { return 0 }

// Run is unreachable on this platform (Compile never succeeds).
func (code *Code) Run(f *Frame, block uint32) {
	panic("jit: Run on unsupported platform")
}
