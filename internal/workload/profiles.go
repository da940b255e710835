package workload

import (
	"hashcore/internal/isa"
	"hashcore/internal/profile"
)

// All returns every workload, sorted by name, with fresh Profile values
// on every call so that no caller can change another's. A program that
// runs a workload to measure it (package refprog) takes its scratch
// memory from WorkingSet.
func All() []Workload {
	return []Workload{
		{
			Name:        "deepsjeng",
			Description: "alpha-beta chess search (SPEC 631.deepsjeng_s stand-in): integer + stack traffic",
			Profile: &profile.Profile{
				Name:            "deepsjeng",
				Mix:             deepsjengMix,
				BranchTaken:     0.62,
				BranchDataDep:   0.35,
				BranchBias:      0.25,
				MemSequential:   0.10,
				MemStrided:      0.25,
				MemRandom:       0.45,
				MemPointerChase: 0.20,
				WorkingSet:      4 << 20,
				BlockMean:       6,
				BlockStd:        2,
				DepDist:         3,
				TargetDynamic:   150_000,
			},
		},
		{
			Name:        "exchange2",
			Description: "recursive puzzle solver (SPEC 648.exchange2_s stand-in): pure integer, predictable branches",
			Profile: &profile.Profile{
				Name:            "exchange2",
				Mix:             exchange2Mix,
				BranchTaken:     0.97,
				BranchDataDep:   0.03,
				BranchBias:      0.50,
				MemSequential:   0.60,
				MemStrided:      0.30,
				MemRandom:       0.10,
				MemPointerChase: 0,
				WorkingSet:      64 << 10,
				BlockMean:       7,
				BlockStd:        2,
				DepDist:         4,
				TargetDynamic:   150_000,
			},
		},
		{
			Name:        "lbm",
			Description: "lattice Boltzmann stencil (SPEC 619.lbm_s stand-in): streaming FP",
			Profile: &profile.Profile{
				Name:            "lbm",
				Mix:             lbmMix,
				BranchTaken:     0.99,
				BranchDataDep:   0.02,
				BranchBias:      0.50,
				MemSequential:   0.85,
				MemStrided:      0.10,
				MemRandom:       0.05,
				MemPointerChase: 0,
				WorkingSet:      8 << 20,
				BlockMean:       10,
				BlockStd:        3,
				DepDist:         3,
				TargetDynamic:   150_000,
			},
		},
		{
			Name:        "leela",
			Description: "MCTS game search (SPEC 641.leela_s stand-in): branchy integer tree walking",
			Profile: &profile.Profile{
				Name: "leela",
				Mix:  leelaMix,
				// Branch and memory knobs are calibrated PerfProx-style:
				// iterate until the widget population's simulated metrics
				// match the reference measurement
				// (`go run ./cmd/hcbench -run fig2,fig3` prints both).
				BranchTaken:     0.60,
				BranchDataDep:   0.85,
				BranchBias:      0.25,
				MemSequential:   0.33,
				MemStrided:      0.03,
				MemRandom:       0.02,
				MemPointerChase: 0.62,
				WorkingSet:      2 << 20,
				BlockMean:       6,
				BlockStd:        2.5,
				DepDist:         3,
				TargetDynamic:   150_000,
			},
		},
		{
			Name:        "mcf",
			Description: "network simplex (SPEC 605.mcf_s stand-in): memory-bound pointer chasing",
			Profile: &profile.Profile{
				Name:            "mcf",
				Mix:             mcfMix,
				BranchTaken:     0.63,
				BranchDataDep:   0.35,
				BranchBias:      0.30,
				MemSequential:   0.05,
				MemStrided:      0.05,
				MemRandom:       0.30,
				MemPointerChase: 0.60,
				WorkingSet:      64 << 20,
				BlockMean:       5,
				BlockStd:        2,
				DepDist:         2,
				TargetDynamic:   150_000,
			},
		},
		{
			Name:        "x264",
			Description: "video-encode SAD kernels (SPEC 625.x264_s stand-in): vector + strided memory",
			Profile: &profile.Profile{
				Name:            "x264",
				Mix:             x264Mix,
				BranchTaken:     0.75,
				BranchDataDep:   0.30,
				BranchBias:      0.40,
				MemSequential:   0.30,
				MemStrided:      0.55,
				MemRandom:       0.15,
				MemPointerChase: 0,
				WorkingSet:      1 << 20,
				BlockMean:       9,
				BlockStd:        3,
				DepDist:         4,
				TargetDynamic:   150_000,
			},
		},
	}
}

// leelaMix is the measured dynamic instruction mix of the leela reference
// program on the VM (see TestMeasuredSignatureMatchesDeclared, which keeps
// this table honest).
var leelaMix = map[isa.Class]float64{
	isa.ClassIntALU: 0.545,
	isa.ClassIntMul: 0.020,
	isa.ClassFPALU:  0.020,
	isa.ClassLoad:   0.158,
	isa.ClassStore:  0.007,
	isa.ClassBranch: 0.250,
	isa.ClassVector: 0,
}

// mcfMix is the measured mix of the mcf reference program.
var mcfMix = map[isa.Class]float64{
	isa.ClassIntALU: 0.540,
	isa.ClassIntMul: 0,
	isa.ClassFPALU:  0,
	isa.ClassLoad:   0.155,
	isa.ClassStore:  0.075,
	isa.ClassBranch: 0.230,
	isa.ClassVector: 0,
}

// lbmMix is the measured mix of the lbm reference program.
var lbmMix = map[isa.Class]float64{
	isa.ClassIntALU: 0.180,
	isa.ClassIntMul: 0,
	isa.ClassFPALU:  0.365,
	isa.ClassLoad:   0.275,
	isa.ClassStore:  0.090,
	isa.ClassBranch: 0.090,
	isa.ClassVector: 0,
}

// x264Mix is the measured mix of the x264 reference program.
var x264Mix = map[isa.Class]float64{
	isa.ClassIntALU: 0.315,
	isa.ClassIntMul: 0,
	isa.ClassFPALU:  0,
	isa.ClassLoad:   0.125,
	isa.ClassStore:  0,
	isa.ClassBranch: 0.185,
	isa.ClassVector: 0.375,
}

// deepsjengMix is the measured mix of the deepsjeng reference program.
var deepsjengMix = map[isa.Class]float64{
	isa.ClassIntALU: 0.530,
	isa.ClassIntMul: 0.080,
	isa.ClassFPALU:  0,
	isa.ClassLoad:   0.100,
	isa.ClassStore:  0.060,
	isa.ClassBranch: 0.230,
	isa.ClassVector: 0,
}

// exchange2Mix is the measured mix of the exchange2 reference program.
var exchange2Mix = map[isa.Class]float64{
	isa.ClassIntALU: 0.849,
	isa.ClassIntMul: 0.005,
	isa.ClassFPALU:  0,
	isa.ClassLoad:   0.001,
	isa.ClassStore:  0,
	isa.ClassBranch: 0.145,
	isa.ClassVector: 0,
}
