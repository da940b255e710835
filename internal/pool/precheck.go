package pool

import "hashcore/internal/telemetry"

// Precheck reject reasons, as reported by the
// pool_precheck_rejects_total counter. "malformed" is counted by the
// connection layer (the line never parsed into a share); the other
// three are Admit verdicts.
const (
	RejectStale       = "stale"
	RejectDuplicate   = "duplicate"
	RejectRateLimited = "rate_limited"
	RejectMalformed   = "malformed"
)

// Precheck is the admission tier of the share ingest path: every check
// that can reject a share without a hashing session, run on the
// connection's read goroutine before the share is allowed to occupy a
// verification-fleet slot. The tiers, in order of increasing cost:
//
//  1. per-miner token-bucket rate limit (~ns: one locked map hit and
//     a couple of float ops on the miner's ledger record, which also
//     books the reject) — flood shedding;
//  2. job lookup (~ns: one locked map hit) — stale/unknown-job shares;
//  3. dedupe check-and-insert (~ns: a probe or two of the seen set's
//     index under its one lock) — duplicate shares.
//
// A share passing all three has a live *Job resolved and its dedupe
// key consumed; the verification fleet re-checks only staleness (the
// job can expire while the share is queued) before paying the ~ms hash
// evaluation. On clean traffic the verdict classes are identical to
// running every check inside the verification worker, because the
// checks and their order are the same — they just moved earlier.
type Precheck struct {
	jobs *JobManager
	seen *SeenSet
	acct *Accounting
	// rate is each miner's sustained submissions per second (0 = no
	// rate limiting) and burst its token-bucket depth.
	rate, burst float64

	// met/journal are nil-safe: bare prechecks (tests, benchmark/) carry
	// no instruments.
	met     *poolMetrics
	journal *telemetry.Journal
}

// NewPrecheck assembles an admission tier over the given job window,
// dedupe set and ledger. rate is the per-miner sustained submissions
// per second (0 disables rate limiting); burst is the bucket depth
// (defaulted from rate when 0).
func NewPrecheck(jobs *JobManager, seen *SeenSet, acct *Accounting, rate float64, burst int) *Precheck {
	p := &Precheck{jobs: jobs, seen: seen, acct: acct}
	if rate > 0 {
		p.rate, p.burst = rate, float64(burst)
		if burst <= 0 {
			// Default burst: a couple of seconds of sustained rate,
			// floored so low rates still tolerate a miner flushing a few
			// found shares back-to-back.
			p.burst = max(2*rate, 8)
		}
	}
	return p
}

// Admit runs the admission tier on one submitted share. When the share
// is admitted it returns (job, zero result, true): the caller must
// hand the share to the verification fleet, which owns the remaining
// verdict. Otherwise it returns (nil, reject verdict, false) with the
// verdict already recorded in the ledger and the precheck counters —
// the caller only replies to the miner. jobID arrives as bytes
// straight from the decoded line; the rejection paths (which need the
// string) are the only ones that copy it.
func (p *Precheck) Admit(miner string, jobID []byte, nonce uint64) (*Job, ShareResult, bool) {
	if p.rate > 0 {
		// spend books the reject in the ledger itself, in the same lock
		// hold that found the bucket dry.
		if allowed, episode := p.acct.spend(miner, p.rate, p.burst); !allowed {
			if episode {
				p.journal.Emit("pool_rate_limited", map[string]any{"miner": miner})
			}
			res := ShareResult{Miner: miner, JobID: string(jobID), Nonce: nonce,
				Status: StatusInvalid, Reason: "rate limited"}
			p.reject(RejectRateLimited, StatusInvalid)
			return nil, res, false
		}
	}

	job, ok := p.jobs.LookupBytes(jobID)
	if !ok {
		res := ShareResult{Miner: miner, JobID: string(jobID), Nonce: nonce,
			Status: StatusStale, Reason: "unknown or expired job"}
		p.acct.Record(miner, StatusStale, 0)
		p.reject(RejectStale, StatusStale)
		return nil, res, false
	}

	if p.seen.CheckAndAdd(shareKey(job.ID, nonce)) {
		res := ShareResult{Miner: miner, JobID: job.ID, Nonce: nonce,
			Status: StatusDuplicate, Reason: "share already submitted", Height: job.Height}
		p.acct.Record(miner, StatusDuplicate, 0)
		p.reject(RejectDuplicate, StatusDuplicate)
		return nil, res, false
	}

	return job, ShareResult{}, true
}

// reject counts one precheck rejection, both on the admission-tier
// counter (by reason) and the verdict counter (by class) — the verdict
// series stays continuous with the pre-admission-tier pipeline, where
// these classes were counted by the verification workers.
func (p *Precheck) reject(reason string, status ShareStatus) {
	if p.met != nil {
		p.met.precheck[reason].Inc()
		p.met.shares[status].Inc()
	}
}
