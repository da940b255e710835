package pool

import (
	"context"
	"encoding/binary"
	"errors"
	"sync"
	"time"

	"hashcore/internal/pow"
)

// ShareResult is the verdict on one submitted share.
type ShareResult struct {
	Miner  string
	JobID  string
	Nonce  uint64
	Status ShareStatus
	// Reason elaborates non-accepted statuses for the miner's logs.
	Reason string
	// Digest is the share's PoW digest; zero when verification rejected
	// the share before hashing (stale, duplicate).
	Digest [32]byte
	// Height is the chain height of the share's job (0 when stale).
	Height int
}

// ShareValidator decides share verdicts. The cheap structural checks
// (job known? nonce fresh?) run before the expensive hash evaluation, so
// replayed and stale floods never reach a hashing session. In server
// use those checks run even earlier — in the admission tier (Precheck)
// on the connection goroutine — and the fleet path enters through
// VerifyAdmitted; the full Verify remains the reference single-path
// pipeline (and the compatible entry for bare pipelines).
type ShareValidator struct {
	jobs *JobManager
	seen *SeenSet
	acct *Accounting
	// onBlock, when non-nil, is called for every share that also meets
	// its job's block target — from a verification worker goroutine.
	onBlock func(job *Job, digest [32]byte, nonce uint64)
}

// NewShareValidator wires a validator over the given job window, dedupe
// set and ledger. onBlock may be nil.
func NewShareValidator(jobs *JobManager, seen *SeenSet, acct *Accounting, onBlock func(job *Job, digest [32]byte, nonce uint64)) *ShareValidator {
	return &ShareValidator{jobs: jobs, seen: seen, acct: acct, onBlock: onBlock}
}

// Verify judges one share using the caller-owned hashing session and
// header scratch buffer, records the verdict in the ledger, and fires the
// block callback when the share solves a block. hdr is reused across
// calls to keep the steady-state verification path allocation-free.
// The server splits these checks in two, Precheck.Admit on the
// connection's goroutine and VerifyAdmitted on the fleet; Verify is the
// single-call reference the split is held to (TestPrecheckEquivalence).
func (v *ShareValidator) Verify(sess pow.Hasher, hdr *[]byte, miner, jobID string, nonce uint64) ShareResult {
	res := ShareResult{Miner: miner, JobID: jobID, Nonce: nonce}

	job, ok := v.jobs.Lookup(jobID)
	if !ok {
		res.Status, res.Reason = StatusStale, "unknown or expired job"
		v.acct.Record(miner, res.Status, 0)
		return res
	}
	res.Height = job.Height

	if v.seen.CheckAndAdd(shareKey(jobID, nonce)) {
		res.Status, res.Reason = StatusDuplicate, "share already submitted"
		v.acct.Record(miner, res.Status, 0)
		return res
	}

	return v.hashAndJudge(sess, hdr, miner, job, res)
}

// VerifyAdmitted judges a share the admission tier already resolved
// and deduped: the *Job is live as of admission and the share's dedupe
// key is consumed. Only staleness is re-checked — the job window can
// move while the share waits in the queue — before the hash
// evaluation. Verdict classes match Verify exactly (the admission tier
// ran the same earlier checks, in the same order).
func (v *ShareValidator) VerifyAdmitted(sess pow.Hasher, hdr *[]byte, miner string, job *Job, nonce uint64) ShareResult {
	res := ShareResult{Miner: miner, JobID: job.ID, Nonce: nonce}

	if _, ok := v.jobs.Lookup(job.ID); !ok {
		res.Status, res.Reason = StatusStale, "unknown or expired job"
		v.acct.Record(miner, res.Status, 0)
		return res
	}
	res.Height = job.Height

	return v.hashAndJudge(sess, hdr, miner, job, res)
}

// hashAndJudge is the expensive back half shared by both entries: one
// full hash evaluation, then the target checks and ledger write.
func (v *ShareValidator) hashAndJudge(sess pow.Hasher, hdr *[]byte, miner string, job *Job, res ShareResult) ShareResult {
	b := append((*hdr)[:0], job.Prefix...)
	b = binary.LittleEndian.AppendUint64(b, res.Nonce)
	*hdr = b
	digest, err := sess.Hash(b)
	if err != nil {
		res.Status, res.Reason = StatusInvalid, "hash error: "+err.Error()
		v.acct.Record(miner, res.Status, 0)
		return res
	}
	res.Digest = digest

	if !pow.Check(digest, job.ShareTarget) {
		res.Status, res.Reason = StatusLowDiff, "digest above share target"
		v.acct.Record(miner, res.Status, 0)
		return res
	}

	res.Status = StatusAccepted
	if pow.Check(digest, job.BlockTarget) {
		res.Status = StatusBlock
		if v.onBlock != nil {
			v.onBlock(job, digest, res.Nonce)
		}
	}
	v.acct.Record(miner, res.Status, job.ShareWork)
	return res
}

// submitTask is one queued share awaiting verification: the admission
// tier has resolved its job and consumed its dedupe key.
type submitTask struct {
	miner string
	job   *Job
	nonce uint64
	reply func(ShareResult)
	// enq is when SubmitAdmitted queued the task; the queue-wait histogram
	// observes the gap to worker pickup. Zero when metrics are off.
	enq time.Time
}

// ErrPipelineClosed is returned by SubmitAdmitted after Close.
var ErrPipelineClosed = errors.New("pool: verification pipeline closed")

// Pipeline is the share-verification fleet: one bounded queue drained
// by a fixed set of workers, each holding a private hashing session
// (minted via pow.SessionHasher when the hasher offers it). Any idle
// worker takes the next share, whoever submitted it, so the fleet is
// busy whenever shares wait; verdicts may leave in a different order
// than their shares arrived (readers match them by nonce). Each verdict
// is one locked update of the miner's ledger record.
//
// The queue is bounded: SubmitAdmitted blocks when it is full, which
// propagates as TCP backpressure to the submitting connection instead
// of unbounded memory growth. Keeping one miner from filling it is the
// admission tier's rate limit, not the fleet's.
type Pipeline struct {
	validator *ShareValidator
	tasks     chan submitTask
	wg        sync.WaitGroup

	// met, when non-nil, receives per-share verdict counts and stage
	// latencies (queue wait, verify time). Attached by the pool server
	// before any submission; nil for bare pipelines (tests, benchmarks).
	met *poolMetrics

	// mu serializes Close (writer) against in-flight submission sends
	// (readers), so the channel close can never race a send.
	mu     sync.RWMutex
	closed bool
}

// NewPipeline starts workers verification workers draining one queue
// of depth shares (minimum 1 each).
func NewPipeline(validator *ShareValidator, hasher pow.Hasher, workers, depth int) *Pipeline {
	if workers < 1 {
		workers = 1
	}
	if depth < 1 {
		depth = 1
	}
	p := &Pipeline{
		validator: validator,
		tasks:     make(chan submitTask, depth),
	}
	for i := 0; i < workers; i++ {
		sess := hasher
		if sh, ok := hasher.(pow.SessionHasher); ok {
			sess = sh.NewSession()
		}
		p.wg.Add(1)
		go p.worker(sess)
	}
	return p
}

// worker drains the queue through its private session.
func (p *Pipeline) worker(sess pow.Hasher) {
	defer p.wg.Done()
	hdr := make([]byte, 0, 128)
	for t := range p.tasks {
		if p.met != nil {
			p.met.queueWait.ObserveSince(t.enq)
		}
		start := time.Now()
		res := p.validator.VerifyAdmitted(sess, &hdr, t.miner, t.job, t.nonce)
		if p.met != nil {
			p.met.verify.ObserveSince(start)
			p.met.shares[res.Status].Inc()
		}
		if t.reply != nil {
			t.reply(res)
		}
	}
}

// SubmitAdmitted enqueues a share the admission tier (Precheck.Admit)
// resolved and deduped; reply (may be nil) is called from the worker
// goroutine with the verdict. It blocks while the queue is full — that
// is the backpressure mechanism — and returns ctx.Err() if the context
// ends first, or ErrPipelineClosed after Close.
func (p *Pipeline) SubmitAdmitted(ctx context.Context, miner string, job *Job, nonce uint64, reply func(ShareResult)) error {
	task := submitTask{miner: miner, job: job, nonce: nonce, reply: reply}
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return ErrPipelineClosed
	}
	if p.met != nil {
		task.enq = time.Now()
	}
	select {
	case p.tasks <- task:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// QueueDepth reports the shares currently waiting for a worker.
func (p *Pipeline) QueueDepth() int { return len(p.tasks) }

// Close drains queued shares (their replies still fire) and stops the
// workers. Submissions racing Close may be verified or may return
// ErrPipelineClosed; none are silently dropped after one returned nil.
func (p *Pipeline) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.tasks)
	p.mu.Unlock()
	p.wg.Wait()
}
