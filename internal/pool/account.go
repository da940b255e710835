package pool

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// MinerStats is one miner's share ledger, in snapshot form: a plain
// value copied out of the live atomic cells at read time.
type MinerStats struct {
	Accepted  uint64 `json:"accepted"`
	Blocks    uint64 `json:"blocks"`
	Stale     uint64 `json:"stale"`
	Duplicate uint64 `json:"duplicate"`
	LowDiff   uint64 `json:"low_diff"`
	Invalid   uint64 `json:"invalid"`
	// ShareWork is the expected number of hash evaluations the accepted
	// shares represent (sum of per-share target work).
	ShareWork float64 `json:"share_work"`
	// Hashrate is the estimated hashes/sec implied by ShareWork over the
	// miner's active window. Zero until the first accepted share.
	Hashrate float64 `json:"hashrate"`

	firstAccepted time.Time
	lastAccepted  time.Time
}

// acctShards stripes the miner ledger's map by miner hash. Writers (the
// precheck tier on connection goroutines, any verification worker) add
// to a miner's cell atomically, so the stripes only bound the cost of
// the cold-path map insert and of snapshot reads.
const acctShards = 16

// minerCell is the live ledger entry for one miner. Every counter is
// atomic, so the record hot path takes no lock at all: the enclosing
// shard's RWMutex guards only map membership (first-share insert and
// snapshot iteration), never the counts themselves.
type minerCell struct {
	accepted  atomic.Uint64
	blocks    atomic.Uint64
	stale     atomic.Uint64
	duplicate atomic.Uint64
	lowDiff   atomic.Uint64
	invalid   atomic.Uint64
	// workBits accumulates ShareWork as float64 bits via CAS.
	workBits atomic.Uint64
	// firstNano/lastNano are unix nanos of the first/last accepted
	// share (0 = none yet).
	firstNano atomic.Int64
	lastNano  atomic.Int64
}

func (c *minerCell) addWork(w float64) {
	for {
		old := c.workBits.Load()
		if c.workBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+w)) {
			return
		}
	}
}

// snapshot copies the cell into a plain MinerStats. Individual fields
// are each atomically read; a snapshot racing a record may see a
// partially applied share (e.g. the count without its work), which the
// next snapshot repairs — the ledger itself never loses an update.
func (c *minerCell) snapshot() MinerStats {
	st := MinerStats{
		Accepted:  c.accepted.Load(),
		Blocks:    c.blocks.Load(),
		Stale:     c.stale.Load(),
		Duplicate: c.duplicate.Load(),
		LowDiff:   c.lowDiff.Load(),
		Invalid:   c.invalid.Load(),
		ShareWork: math.Float64frombits(c.workBits.Load()),
	}
	if f := c.firstNano.Load(); f != 0 {
		st.firstAccepted = time.Unix(0, f)
	}
	if l := c.lastNano.Load(); l != 0 {
		st.lastAccepted = time.Unix(0, l)
	}
	return st
}

type acctShard struct {
	mu sync.RWMutex
	m  map[string]*minerCell
}

// Accounting tracks per-miner share statistics. Safe for concurrent
// use; the record path is lock-free once a miner's cell exists.
type Accounting struct {
	shards [acctShards]acctShard
	now    func() time.Time
}

// NewAccounting creates an empty ledger.
func NewAccounting() *Accounting {
	a := &Accounting{now: time.Now}
	for i := range a.shards {
		a.shards[i].m = make(map[string]*minerCell)
	}
	return a
}

// minerHash hashes a miner name (FNV-1a); it picks the miner's ledger
// stripe and rate-limiter stripe.
func minerHash(miner string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(miner); i++ {
		h ^= uint64(miner[i])
		h *= prime64
	}
	return h
}

// cell resolves (creating on first sight) the live ledger entry for
// miner. Hot path: one shared-lock map hit.
func (a *Accounting) cell(miner string) *minerCell {
	sh := &a.shards[minerHash(miner)%acctShards]
	sh.mu.RLock()
	c := sh.m[miner]
	sh.mu.RUnlock()
	if c != nil {
		return c
	}
	sh.mu.Lock()
	if c = sh.m[miner]; c == nil {
		c = &minerCell{}
		sh.m[miner] = c
	}
	sh.mu.Unlock()
	return c
}

// Record books one share verdict for miner. work is the expected hash
// evaluations an accepted share of its job represents (Job.ShareWork);
// it is ignored for non-accepted statuses.
func (a *Accounting) Record(miner string, status ShareStatus, work float64) {
	c := a.cell(miner)
	switch status {
	case StatusAccepted, StatusBlock:
		now := a.now().UnixNano()
		c.firstNano.CompareAndSwap(0, now)
		for {
			old := c.lastNano.Load()
			if old >= now || c.lastNano.CompareAndSwap(old, now) {
				break
			}
		}
		c.accepted.Add(1)
		c.addWork(work)
		if status == StatusBlock {
			c.blocks.Add(1)
		}
	case StatusStale:
		c.stale.Add(1)
	case StatusDuplicate:
		c.duplicate.Add(1)
	case StatusLowDiff:
		c.lowDiff.Add(1)
	default:
		c.invalid.Add(1)
	}
}

// hashrate estimates hashes/sec from the accepted-share work over the
// window from the first accepted share to now. The window is floored
// at one second so a lone early share does not read as an absurd rate.
func (st *MinerStats) hashrate(now time.Time) float64 {
	if st.Accepted == 0 {
		return 0
	}
	elapsed := now.Sub(st.firstAccepted).Seconds()
	if elapsed < 1 {
		elapsed = 1
	}
	return st.ShareWork / elapsed
}

// Hashrate returns the current hashrate estimate for miner (0 if
// unknown).
func (a *Accounting) Hashrate(miner string) float64 {
	sh := &a.shards[minerHash(miner)%acctShards]
	sh.mu.RLock()
	c := sh.m[miner]
	sh.mu.RUnlock()
	if c == nil {
		return 0
	}
	st := c.snapshot()
	return st.hashrate(a.now())
}

// MinerSnapshot pairs a miner name with a copy of its stats.
type MinerSnapshot struct {
	Miner string `json:"miner"`
	MinerStats
}

// Snapshot merges every stripe's cells into a copy of every miner's
// stats, hashrate filled in, sorted by name for stable output. This is
// the merge-at-read half of the sharded ledger: writers never
// coordinate, readers pay the join.
func (a *Accounting) Snapshot() []MinerSnapshot {
	now := a.now()
	var out []MinerSnapshot
	for i := range a.shards {
		sh := &a.shards[i]
		sh.mu.RLock()
		for name, c := range sh.m {
			st := c.snapshot()
			st.Hashrate = st.hashrate(now)
			out = append(out, MinerSnapshot{Miner: name, MinerStats: st})
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Miner < out[j].Miner })
	return out
}

// Totals sums all miners' counters into one MinerStats (hashrate is the
// sum of per-miner estimates).
func (a *Accounting) Totals() MinerStats {
	now := a.now()
	var t MinerStats
	for i := range a.shards {
		sh := &a.shards[i]
		sh.mu.RLock()
		for _, c := range sh.m {
			st := c.snapshot()
			t.Accepted += st.Accepted
			t.Blocks += st.Blocks
			t.Stale += st.Stale
			t.Duplicate += st.Duplicate
			t.LowDiff += st.LowDiff
			t.Invalid += st.Invalid
			t.ShareWork += st.ShareWork
			t.Hashrate += st.hashrate(now)
		}
		sh.mu.RUnlock()
	}
	return t
}
