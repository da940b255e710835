// Package uarch is a trace-driven timing model of an out-of-order
// superscalar processor. It consumes retired-instruction events from the
// VM (internal/vm) and estimates cycles, IPC, branch-prediction accuracy
// and cache behaviour for the executed instruction stream.
//
// The paper evaluates widgets on a Xeon E5-2430 v2 ("Ivy Bridge") with
// hardware performance counters; this package is the substitute substrate.
// It implements a finite-window dynamic-scheduling model: instructions
// dispatch in order at a bounded width, wait for their register
// dependencies, contend for per-class functional units, and retire in
// order through a reorder buffer. Branch mispredictions stall the
// front-end; loads pay the latency of the cache level that hits.
//
// The model intentionally simplifies the real machine (no store-to-load
// forwarding, no prefetchers, no TLBs, rate-limited rather than
// slot-scheduled ports). These effects shift absolute IPC but preserve the
// distribution *shape* over widget populations, which is what Figures 2
// and 3 of the paper measure.
//
// It is also the measuring side of profiles: Measure and MeasureFunctional
// run a program into a Report, the signature a profile.Profile targets.
// Nothing here can change a digest, so the package stays outside the
// consensus set.
package uarch

// CacheConfig describes one cache level.
type CacheConfig struct {
	// Size is the total capacity in bytes.
	Size int
	// Assoc is the set associativity.
	Assoc int
	// LineSize is the cache line size in bytes.
	LineSize int
	// Latency is the access latency in cycles for a hit at this level.
	Latency float64
}

// NumSets returns the number of sets implied by the configuration.
func (c CacheConfig) NumSets() int {
	if c.Size <= 0 || c.Assoc <= 0 || c.LineSize <= 0 {
		return 0
	}
	return c.Size / (c.Assoc * c.LineSize)
}

// cacheLine is one way of one set.
type cacheLine struct {
	tag      uint64
	valid    bool
	lastUsed uint64
}

// Cache is a set-associative cache with LRU replacement.
type Cache struct {
	cfg     CacheConfig
	sets    []cacheLine // numSets * assoc, row-major
	numSets int
	shift   uint // log2(lineSize)
	clock   uint64

	hits   uint64
	misses uint64
}

// NewCache builds a cache from cfg. It panics if the geometry is invalid
// (non-power-of-two sets or line size), which is a configuration bug.
func NewCache(cfg CacheConfig) *Cache {
	numSets := cfg.NumSets()
	if numSets == 0 || numSets&(numSets-1) != 0 {
		panic("uarch: cache set count must be a positive power of two")
	}
	if cfg.LineSize&(cfg.LineSize-1) != 0 {
		panic("uarch: cache line size must be a power of two")
	}
	shift := uint(0)
	for l := cfg.LineSize; l > 1; l >>= 1 {
		shift++
	}
	return &Cache{
		cfg:     cfg,
		sets:    make([]cacheLine, numSets*cfg.Assoc),
		numSets: numSets,
		shift:   shift,
	}
}

// Access looks up addr, updating LRU state and filling on miss.
// It returns true on hit.
func (c *Cache) Access(addr uint64) bool {
	c.clock++
	block := addr >> c.shift
	set := int(block) & (c.numSets - 1)
	tag := block >> uint(log2i(c.numSets))

	ways := c.sets[set*c.cfg.Assoc : (set+1)*c.cfg.Assoc]
	victim := 0
	var victimUsed uint64 = ^uint64(0)
	for i := range ways {
		w := &ways[i]
		if w.valid && w.tag == tag {
			w.lastUsed = c.clock
			c.hits++
			return true
		}
		if !w.valid {
			victim = i
			victimUsed = 0
		} else if w.lastUsed < victimUsed {
			victim = i
			victimUsed = w.lastUsed
		}
	}
	ways[victim] = cacheLine{tag: tag, valid: true, lastUsed: c.clock}
	c.misses++
	return false
}

// Stats returns cumulative (hits, misses).
func (c *Cache) Stats() (hits, misses uint64) { return c.hits, c.misses }

// HitRate returns hits / accesses, or 0 for no accesses.
func (c *Cache) HitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}

// Reset clears contents and statistics.
func (c *Cache) Reset() {
	for i := range c.sets {
		c.sets[i] = cacheLine{}
	}
	c.clock = 0
	c.hits = 0
	c.misses = 0
}

// Hierarchy is an inclusive multi-level data-cache hierarchy backed by
// main memory.
type Hierarchy struct {
	levels     []*Cache
	memLatency float64
	memAccess  uint64
}

// NewHierarchy builds a hierarchy from the given level configurations
// (nearest first) and the main-memory latency.
func NewHierarchy(memLatency float64, cfgs ...CacheConfig) *Hierarchy {
	h := &Hierarchy{memLatency: memLatency}
	for _, cfg := range cfgs {
		h.levels = append(h.levels, NewCache(cfg))
	}
	return h
}

// Access returns the latency of accessing addr: the hit latency of the
// first level that hits, or the memory latency. All missing levels are
// filled (inclusive hierarchy).
func (h *Hierarchy) Access(addr uint64) float64 {
	latency := h.memLatency
	hitLevel := -1
	for i, c := range h.levels {
		if c.Access(addr) {
			latency = c.cfg.Latency
			hitLevel = i
			break
		}
	}
	if hitLevel == -1 {
		h.memAccess++
	}
	return latency
}

// Level returns cache level i (0-based, nearest first).
func (h *Hierarchy) Level(i int) *Cache { return h.levels[i] }

// NumLevels returns the number of cache levels.
func (h *Hierarchy) NumLevels() int { return len(h.levels) }

// MemAccesses returns the number of accesses that missed every level.
func (h *Hierarchy) MemAccesses() uint64 { return h.memAccess }

// Reset clears all levels and counters.
func (h *Hierarchy) Reset() {
	for _, c := range h.levels {
		c.Reset()
	}
	h.memAccess = 0
}

func log2i(n int) int {
	l := 0
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}
