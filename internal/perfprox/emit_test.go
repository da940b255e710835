package perfprox

import (
	"math/bits"
	"math/rand"
	"testing"

	"hashcore/internal/isa"
	"hashcore/internal/prog"
	"hashcore/internal/rng"
	"hashcore/internal/workload"
)

// pickCumAt is rng.PickCum's comparison for the draw whose 53 bits are x:
// the first index whose cumulative weight exceeds the target, the last if
// none does.
func pickCumAt(x uint64, cum []float64) int {
	target := float64(float64(x)/(1<<53)) * cum[len(cum)-1]
	for i, c := range cum {
		if target < c {
			return i
		}
	}
	return len(cum) - 1
}

// boundaryDraws returns every cut, one below and one above, and both ends
// of the 53-bit range.
func boundaryDraws(cuts []uint64) []uint64 {
	xs := []uint64{0, 1<<53 - 1}
	for _, c := range cuts {
		for _, x := range []uint64{c - 1, c, c + 1} {
			if x < 1<<53 {
				xs = append(xs, x)
			}
		}
	}
	return xs
}

// TestOpTablesMatchPickCum holds each register class's opcode draw — cut
// table and buckets — to the weighted draw it replaces, at every cut of
// every table, and the integer-multiply table to Intn(4) == 0 for mulh.
func TestOpTablesMatchPickCum(t *testing.T) {
	for f, ops := range map[int][]weighted{fIntALU: intALUOps, fIntMul: intMulOps, fFPALU: fpOps, fVector: vecOps} {
		w := make([]float64, len(ops))
		for i, o := range ops {
			w[i] = o.weight
		}
		cum := rng.CumWeights(nil, w)
		for _, x := range boundaryDraws(rng.PickCuts(nil, cum)) {
			v := x<<11 | 0x3ff
			got := opTables[f].draw(v).op
			want := ops[pickCumAt(x, cum)].op
			if f == fIntMul {
				want = isa.OpMul
				if v>>62 == 0 {
					want = isa.OpMulH
				}
			}
			if got != want {
				t.Errorf("%v, draw %#x: %v, want %v", fillerClasses[f], x, got, want)
			}
		}
	}
}

// TestPatternCutsMatchPickCum does the same for every profile's load and
// store access-pattern draws.
func TestPatternCutsMatchPickCum(t *testing.T) {
	for _, wl := range workload.All() {
		g, err := NewGenerator(wl.Profile, Params{})
		if err != nil {
			t.Fatal(err)
		}
		p := wl.Profile
		for _, tc := range []struct {
			what string
			w    []float64
			cuts []uint64
		}{
			{"load", []float64{p.MemSequential, p.MemStrided, p.MemRandom, p.MemPointerChase}, g.loadCuts[:]},
			{"store", []float64{p.MemSequential, p.MemStrided, p.MemRandom + p.MemPointerChase}, g.storeCuts[:]},
		} {
			cum := rng.CumWeights(nil, tc.w)
			for _, x := range boundaryDraws(tc.cuts) {
				n := 0
				for _, c := range tc.cuts {
					n += int(b2u(x >= c))
				}
				if want := pickCumAt(x, cum); n != want {
					t.Errorf("%s %s pattern, draw %#x: %d, want %d", wl.Name, tc.what, x, n, want)
				}
			}
		}
	}
}

// drawModel reads a window one draw at a time the way the reference
// pipeline's Xoshiro256 methods consume its stream: Intn by Lemire's
// method, which rejects an integer-pool draw of 0, and the 1/DepDist coin.
type drawModel struct {
	buf  []uint64
	i    int
	cut  uint64
	last [4]uint8
}

func (m *drawModel) next() uint64 { m.i++; return m.buf[m.i-1] }

func (m *drawModel) intn(n uint64) uint8 {
	for {
		hi, lo := bits.Mul64(m.next(), n)
		if lo >= n || lo >= -n%n {
			return uint8(hi)
		}
	}
}

func (m *drawModel) dst(f isa.RegFile) uint8 {
	m.last[f] = m.intn(poolSize[f])
	return m.last[f]
}

func (m *drawModel) src(f isa.RegFile) uint8 {
	if m.next()>>11 < m.cut {
		return m.last[f]
	}
	return m.intn(poolSize[f])
}

// TestFillerZeroDraws drives filler, emitLoad and emitStore over windows
// with a zero draw at each position — the draw the integer pool rejects,
// which sends the instruction down the one-draw-at-a-time path — and over
// windows without one, and holds the instruction and the draws taken to
// the model of the reference pipeline's draws.
func TestFillerZeroDraws(t *testing.T) {
	g := newLeelaGen(t)
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3000; trial++ {
		var sc Scratch
		st := &sc.st
		st.reset(g, Fields{})
		st.code = make([]prog.Instr, 1)
		for k := range st.bbv.Buf {
			st.bbv.Buf[k] = r.Uint64()
			if r.Intn(3) == 0 { // coins that pick the recent register
				st.bbv.Buf[k] &= 1<<62 - 1
			}
		}
		zero := trial%10 - 1 // no zero, then one at each of the first nine draws
		if zero >= 0 {
			st.bbv.Buf[zero] = 0
		}
		st.bbv.Pos, st.bbv.Zero = 0, max(zero, 0)
		if zero < 0 {
			st.bbv.Zero = rng.LookaheadSize
		}
		for k := range st.mem.Buf {
			st.mem.Buf[k] = r.Uint64()
		}
		st.mem.Pos, st.mem.Zero = 0, rng.LookaheadSize
		st.last = [4]uint8{isa.RegInt: uint8(r.Intn(5)), isa.RegFP: uint8(r.Intn(16)), isa.RegVec: uint8(r.Intn(8))}
		m := drawModel{buf: st.bbv.Buf[:], cut: g.depCut, last: st.last}

		f := r.Intn(numFiller)
		var want prog.Instr
		switch f {
		case fLoad, fStore:
			mm := drawModel{buf: st.mem.Buf[:]}
			pat := 0
			cuts := g.loadCuts
			if f == fStore {
				cuts = g.storeCuts
			}
			x := mm.next() >> 11
			for _, c := range cuts {
				pat += int(b2u(x >= c))
			}
			fp := mm.next()>>11 < g.floadCut
			file := isa.RegInt
			if fp {
				file = isa.RegFP
			}
			var base uint8
			var disp int64
			switch pat {
			case patSeq:
				base = regSeq
			case patStride:
				base = regStride
			case patRand:
				base = regEntropy
				if mm.next()>>63 != 0 {
					base = m.src(isa.RegInt)
				}
				disp = int64(mm.next() >> 48)
			}
			switch {
			case f == fLoad && pat == patChase:
				want = prog.Instr{Op: isa.OpLoad, Dst: regChase, A: regChase}
			case f == fLoad:
				want = prog.Instr{Op: memOps[0][b2u(fp)], Dst: m.dst(file), A: base, Imm: disp}
			default:
				want = prog.Instr{Op: memOps[1][b2u(fp)], A: base, B: m.src(file), Imm: disp}
			}
		default:
			o := opTables[f].draw(m.next())
			want = prog.Instr{Op: o.op, Dst: m.dst(o.files[0])}
			want.A = m.src(o.files[1])
			if o.hasB != 0 {
				want.B = m.src(o.files[2])
			}
			if o.imm != 0 {
				want.Imm = int64(m.next()>>52) - 2048
			}
		}
		want.Class = want.Op.ClassOf()

		st.filler(f)
		if got := st.code[0]; got != want || st.bbv.Pos != m.i || st.last != m.last {
			t.Fatalf("trial %d, %v, zero at %d: %+v after %d draws (recent %v), want %+v after %d (recent %v)",
				trial, fillerClasses[f], zero, got, st.bbv.Pos, st.last, want, m.i, m.last)
		}
	}
}
