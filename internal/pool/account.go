package pool

import (
	"sort"
	"sync"
	"time"
)

// MinerStats is one miner's share ledger, in snapshot form: a plain
// value copied out of the miner's record at read time.
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
}

// record is one miner's live state: its ledger and the admission
// tier's token bucket for it.
type record struct {
	stats MinerStats
	// tokens is the bucket's fill as of refill (zero time = bucket not
	// yet used); limited marks a rate-limited episode, so the journal
	// records one event per flood, not one per rejected share.
	tokens  float64
	refill  time.Time
	limited bool
}

// Accounting tracks per-miner share statistics and per-miner
// submission rate: one record per miner, all behind one mutex. Safe
// for concurrent use.
type Accounting struct {
	mu     sync.Mutex
	miners map[string]*record
	now    func() time.Time
}

// NewAccounting creates an empty ledger.
func NewAccounting() *Accounting {
	return &Accounting{miners: make(map[string]*record), now: time.Now}
}

// get returns miner's record, creating it on first sight. The caller
// holds a.mu.
func (a *Accounting) get(miner string) *record {
	r := a.miners[miner]
	if r == nil {
		r = &record{}
		a.miners[miner] = r
	}
	return r
}

// Record books one share verdict for miner. work is the expected hash
// evaluations an accepted share of its job represents (Job.ShareWork);
// it is ignored for non-accepted statuses.
func (a *Accounting) Record(miner string, status ShareStatus, work float64) {
	accepted := status.Accepted()
	var now time.Time
	if accepted {
		now = a.now()
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	st := &a.get(miner).stats
	switch {
	case accepted:
		if st.Accepted == 0 {
			st.firstAccepted = now
		}
		st.Accepted++
		st.ShareWork += work
		if status == StatusBlock {
			st.Blocks++
		}
	case status == StatusStale:
		st.Stale++
	case status == StatusDuplicate:
		st.Duplicate++
	case status == StatusLowDiff:
		st.LowDiff++
	default:
		st.Invalid++
	}
}

// spend takes one token from miner's bucket, which refills at rate per
// second up to burst. A dry bucket books the share as invalid in the
// same lock hold, so the limiter and the ledger always agree; episode
// reports whether that reject opens a new rate-limited episode.
func (a *Accounting) spend(miner string, rate, burst float64) (allowed, episode bool) {
	now := a.now()
	a.mu.Lock()
	defer a.mu.Unlock()
	r := a.get(miner)
	if r.refill.IsZero() {
		r.tokens, r.refill = burst, now
	}
	if dt := now.Sub(r.refill).Seconds(); dt > 0 {
		r.tokens = min(r.tokens+dt*rate, burst)
		r.refill = now
	}
	if r.tokens < 1 {
		episode = !r.limited
		r.limited = true
		r.stats.Invalid++
		return false, episode
	}
	r.tokens--
	r.limited = false
	return true, false
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

// MinerSnapshot pairs a miner name with a copy of its stats.
type MinerSnapshot struct {
	Miner string `json:"miner"`
	MinerStats
}

// Snapshot returns a copy of every miner's stats, hashrate filled in,
// sorted by name for stable output. Each record is copied whole under
// the lock, so a snapshot never holds part of a share. A miner with no
// verdict booked yet (its first share admitted and still in the
// verification queue) is left out.
func (a *Accounting) Snapshot() []MinerSnapshot {
	now := a.now()
	a.mu.Lock()
	out := make([]MinerSnapshot, 0, len(a.miners))
	for name, r := range a.miners {
		if st := &r.stats; st.Accepted+st.Stale+st.Duplicate+st.LowDiff+st.Invalid == 0 {
			continue
		}
		out = append(out, MinerSnapshot{Miner: name, MinerStats: r.stats})
	}
	a.mu.Unlock()
	for i := range out {
		out[i].Hashrate = out[i].hashrate(now)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Miner < out[j].Miner })
	return out
}

// Totals sums all miners' counters into one MinerStats (hashrate is the
// sum of per-miner estimates).
func (a *Accounting) Totals() MinerStats {
	var t MinerStats
	for _, m := range a.Snapshot() {
		t.Accepted += m.Accepted
		t.Blocks += m.Blocks
		t.Stale += m.Stale
		t.Duplicate += m.Duplicate
		t.LowDiff += m.LowDiff
		t.Invalid += m.Invalid
		t.ShareWork += m.ShareWork
		t.Hashrate += m.Hashrate
	}
	return t
}
