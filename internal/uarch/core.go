package uarch

import (
	"hashcore/internal/isa"
	"hashcore/internal/prog"
	"hashcore/internal/vm"
)

// UnitConfig describes the functional units serving one instruction class.
type UnitConfig struct {
	// Count is the number of units (issue ports) for the class.
	Count int
	// Latency is the default execute latency in cycles.
	Latency float64
	// Pipelined units accept a new operation every cycle; non-pipelined
	// units are busy for the full latency (divider-style).
	Pipelined bool
}

// Config describes the modeled core.
type Config struct {
	// Name labels the configuration in reports.
	Name string
	// FetchWidth is the maximum dispatch rate (instructions/cycle).
	FetchWidth int
	// RetireWidth is the maximum in-order retire rate.
	RetireWidth int
	// ROBSize is the reorder-buffer capacity (maximum in-flight window).
	ROBSize int
	// MispredictPenalty is the front-end refill bubble after a
	// mispredicted branch resolves, in cycles.
	MispredictPenalty float64
	// Predictor selects the branch direction predictor.
	Predictor PredictorKind
	// Units maps each instruction class to its functional units.
	Units map[isa.Class]UnitConfig
	// OpLatency overrides the class latency for specific opcodes
	// (e.g. fdiv, fsqrt).
	OpLatency map[isa.Opcode]float64
	// NonPipelinedOps lists opcodes whose unit is busy for the full
	// latency regardless of the class's Pipelined flag.
	NonPipelinedOps map[isa.Opcode]bool
	// L1I is the instruction cache; L1D, L2, L3 the data hierarchy.
	L1I CacheConfig
	L1D CacheConfig
	L2  CacheConfig
	L3  CacheConfig
	// MemLatency is the access latency when every cache level misses.
	MemLatency float64
	// ICodeBytes is the modeled size of one instruction in instruction
	// memory, used to lay static instructions out in I-cache lines.
	ICodeBytes int
}

// IvyBridge returns a configuration loosely modeled on the paper's test
// platform, a Xeon E5-2430 v2 (Ivy Bridge-EP): 4-wide, 168-entry ROB,
// 32 KiB L1s, 256 KiB L2, 15 MiB L3.
func IvyBridge() Config {
	return Config{
		Name:              "ivybridge-like",
		FetchWidth:        4,
		RetireWidth:       4,
		ROBSize:           168,
		MispredictPenalty: 14,
		Predictor:         PredTournament,
		Units: map[isa.Class]UnitConfig{
			isa.ClassIntALU: {Count: 3, Latency: 1, Pipelined: true},
			isa.ClassIntMul: {Count: 1, Latency: 3, Pipelined: true},
			isa.ClassFPALU:  {Count: 2, Latency: 3, Pipelined: true},
			isa.ClassLoad:   {Count: 2, Latency: 0, Pipelined: true}, // latency from cache
			isa.ClassStore:  {Count: 1, Latency: 1, Pipelined: true},
			isa.ClassBranch: {Count: 1, Latency: 1, Pipelined: true},
			isa.ClassVector: {Count: 1, Latency: 2, Pipelined: true},
		},
		OpLatency: map[isa.Opcode]float64{
			isa.OpFMul:  5,
			isa.OpFDiv:  14,
			isa.OpFSqrt: 14,
		},
		NonPipelinedOps: map[isa.Opcode]bool{
			isa.OpFDiv:  true,
			isa.OpFSqrt: true,
		},
		L1I: CacheConfig{Size: 32 << 10, Assoc: 8, LineSize: 64, Latency: 0},
		L1D: CacheConfig{Size: 32 << 10, Assoc: 8, LineSize: 64, Latency: 4},
		L2:  CacheConfig{Size: 256 << 10, Assoc: 8, LineSize: 64, Latency: 12},
		// The real part has a 15 MiB 20-way sliced L3; the model rounds to
		// the nearest power-of-two geometry.
		L3:         CacheConfig{Size: 16 << 20, Assoc: 16, LineSize: 64, Latency: 30},
		MemLatency: 180,
		ICodeBytes: 16,
	}
}

// Metrics summarizes a simulated execution.
type Metrics struct {
	Instructions uint64
	Cycles       float64
	IPC          float64

	CondBranches   uint64
	TakenBranches  uint64
	Mispredicts    uint64
	BranchAccuracy float64 // correct / conditional branches
	MPKI           float64 // mispredicts per kilo-instruction

	L1DHitRate float64
	L2HitRate  float64
	L3HitRate  float64
	L1IHitRate float64
	MemAccess  uint64

	ClassCounts map[isa.Class]uint64
}

// Core is the timing model. It implements vm.Observer: attach it to a VM
// run and read Metrics afterwards. Core is single-use per measurement; call
// Reset to reuse.
type Core struct {
	cfg    Config
	pred   Predictor
	icache *Cache
	dmem   *Hierarchy

	units map[isa.Class][]float64 // per-unit free time

	intReady [isa.NumIntRegs]float64
	fpReady  [isa.NumFPRegs]float64
	vecReady [isa.NumVecRegs]float64

	retireRing []float64
	count      uint64
	dispatch   float64 // last dispatch time
	frontendAt float64 // front-end resume time after redirects
	lastRetire float64

	condBranches  uint64
	takenBranches uint64
	mispredicts   uint64
	classCounts   [8]uint64

	fetchInterval  float64
	retireInterval float64
}

var _ vm.Observer = (*Core)(nil)

// NewCore builds a timing model for cfg.
func NewCore(cfg Config) *Core {
	c := &Core{
		cfg:    cfg,
		pred:   NewPredictor(cfg.Predictor),
		icache: NewCache(cfg.L1I),
		dmem:   NewHierarchy(cfg.MemLatency, cfg.L1D, cfg.L2, cfg.L3),
	}
	c.units = make(map[isa.Class][]float64, len(cfg.Units))
	for class, u := range cfg.Units {
		c.units[class] = make([]float64, u.Count)
	}
	c.retireRing = make([]float64, cfg.ROBSize)
	c.fetchInterval = 1 / float64(cfg.FetchWidth)
	c.retireInterval = 1 / float64(cfg.RetireWidth)
	return c
}

// Reset clears all model state for a fresh measurement.
func (c *Core) Reset() {
	c.pred = NewPredictor(c.cfg.Predictor)
	c.icache.Reset()
	c.dmem.Reset()
	for _, u := range c.units {
		for i := range u {
			u[i] = 0
		}
	}
	c.intReady = [isa.NumIntRegs]float64{}
	c.fpReady = [isa.NumFPRegs]float64{}
	c.vecReady = [isa.NumVecRegs]float64{}
	for i := range c.retireRing {
		c.retireRing[i] = 0
	}
	c.count = 0
	c.dispatch = 0
	c.frontendAt = 0
	c.lastRetire = 0
	c.condBranches = 0
	c.takenBranches = 0
	c.mispredicts = 0
	c.classCounts = [8]uint64{}
}

// OnRetire advances the timing model by one retired instruction.
func (c *Core) OnRetire(ev *vm.Event) {
	c.classCounts[ev.Class]++

	// 1. In-order dispatch: rate-limited by fetch width, gated by
	// front-end redirects (mispredictions) and I-cache misses.
	dispatch := c.dispatch + c.fetchInterval
	if c.frontendAt > dispatch {
		dispatch = c.frontendAt
	}
	if !c.icache.Access(uint64(ev.StaticID) * uint64(c.cfg.ICodeBytes)) {
		// Instruction fetch missed L1I; charge the L2 latency as a
		// front-end bubble.
		dispatch += c.cfg.L2.Latency
	}
	// ROB occupancy: the window admits at most ROBSize in-flight
	// instructions, so dispatch waits for the retire of the instruction
	// ROBSize older.
	ringIdx := int(c.count % uint64(len(c.retireRing)))
	if c.count >= uint64(len(c.retireRing)) && c.retireRing[ringIdx] > dispatch {
		dispatch = c.retireRing[ringIdx]
	}
	c.dispatch = dispatch

	// 2. Register dependencies.
	ready := dispatch
	dstFile, aFile, bFile := ev.Op.Operands()
	if t := c.srcReady(aFile, ev.A); t > ready {
		ready = t
	}
	if t := c.srcReady(bFile, ev.B); t > ready {
		ready = t
	}

	// 3. Functional-unit contention.
	unit := c.units[ev.Class]
	best := 0
	for i := 1; i < len(unit); i++ {
		if unit[i] < unit[best] {
			best = i
		}
	}
	issue := ready
	if unit != nil && unit[best] > issue {
		issue = unit[best]
	}

	// 4. Execution latency.
	var latency float64
	if ev.Class == isa.ClassLoad {
		latency = c.dmem.Access(ev.Addr)
	} else if l, ok := c.cfg.OpLatency[ev.Op]; ok {
		latency = l
	} else {
		latency = c.cfg.Units[ev.Class].Latency
	}
	if ev.Class == isa.ClassStore {
		// Stores update the cache state; their latency is hidden by the
		// store buffer, but the access keeps the hierarchy state honest.
		c.dmem.Access(ev.Addr)
	}
	complete := issue + latency

	if unit != nil {
		if c.cfg.NonPipelinedOps[ev.Op] || !c.cfg.Units[ev.Class].Pipelined {
			unit[best] = complete
		} else {
			unit[best] = issue + 1
		}
	}

	// 5. Destination availability.
	if dstFile != isa.RegNone {
		c.setDstReady(dstFile, ev.Dst, complete)
	}

	// 6. Branch resolution.
	if ev.Op.IsCondBranch() {
		c.condBranches++
		if ev.Taken {
			c.takenBranches++
		}
		predicted := c.pred.Predict(ev.StaticID)
		if predicted != ev.Taken {
			c.mispredicts++
			resume := complete + c.cfg.MispredictPenalty
			if resume > c.frontendAt {
				c.frontendAt = resume
			}
		}
		c.pred.Update(ev.StaticID, ev.Taken)
	}

	// 7. In-order retire.
	retire := c.lastRetire + c.retireInterval
	if complete > retire {
		retire = complete
	}
	c.retireRing[ringIdx] = retire
	c.lastRetire = retire
	c.count++
}

func (c *Core) srcReady(f isa.RegFile, idx uint8) float64 {
	switch f {
	case isa.RegInt:
		return c.intReady[idx]
	case isa.RegFP:
		return c.fpReady[idx]
	case isa.RegVec:
		return c.vecReady[idx]
	default:
		return 0
	}
}

func (c *Core) setDstReady(f isa.RegFile, idx uint8, t float64) {
	switch f {
	case isa.RegInt:
		c.intReady[idx] = t
	case isa.RegFP:
		c.fpReady[idx] = t
	case isa.RegVec:
		c.vecReady[idx] = t
	}
}

// Metrics returns the accumulated measurements.
func (c *Core) Metrics() Metrics {
	m := Metrics{
		Instructions:  c.count,
		Cycles:        c.lastRetire,
		CondBranches:  c.condBranches,
		TakenBranches: c.takenBranches,
		Mispredicts:   c.mispredicts,
		L1DHitRate:    c.dmem.Level(0).HitRate(),
		L2HitRate:     c.dmem.Level(1).HitRate(),
		L3HitRate:     c.dmem.Level(2).HitRate(),
		L1IHitRate:    c.icache.HitRate(),
		MemAccess:     c.dmem.MemAccesses(),
		ClassCounts:   make(map[isa.Class]uint64, len(isa.Classes)),
	}
	if m.Cycles > 0 {
		m.IPC = float64(m.Instructions) / m.Cycles
	}
	if m.CondBranches > 0 {
		m.BranchAccuracy = float64(m.CondBranches-m.Mispredicts) / float64(m.CondBranches)
	}
	if m.Instructions > 0 {
		m.MPKI = float64(m.Mispredicts) / float64(m.Instructions) * 1000
	}
	for _, class := range isa.Classes {
		m.ClassCounts[class] = c.classCounts[class]
	}
	return m
}

// MeasureProgram runs p on a fresh VM with a fresh Core and returns the
// timing metrics together with the functional result.
func MeasureProgram(p *prog.Program, cfg Config, params vm.Params) (Metrics, *vm.Result, error) {
	core := NewCore(cfg)
	res, err := vm.Run(p, params, core)
	if err != nil {
		return Metrics{}, nil, err
	}
	return core.Metrics(), res, nil
}
