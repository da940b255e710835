package pool

import (
	"fmt"
	"math/big"
	"strconv"
	"sync"
	"sync/atomic"

	"hashcore/internal/blockchain"
	"hashcore/internal/pow"
)

// Job is one unit of pool work: a block template plus the targets shares
// are judged against. Jobs are immutable after creation except for the
// nonce-range cursor.
type Job struct {
	// ID is the wire identifier, a decimal sequence number.
	ID string
	// Header is the block template with a zero nonce.
	Header blockchain.Header
	// Prefix is Header serialized minus the trailing nonce — the miner's
	// hashing prefix.
	Prefix []byte
	// Height is the chain height the solved block would occupy.
	Height int
	// ShareBits / ShareTarget is the pool share difficulty: the easier
	// threshold a submission must meet to count as work.
	ShareBits   uint32
	ShareTarget pow.Target
	// BlockBits / BlockTarget is the network difficulty a share must also
	// meet to solve the block.
	BlockBits   uint32
	BlockTarget pow.Target
	// ShareWork is the expected number of hash evaluations one accepted
	// share represents (ShareTarget.Work() as a float), used by hashrate
	// estimation.
	ShareWork float64
	// Clean records whether this job invalidated all earlier jobs (the
	// chain tip moved), so notifies can tell subscribers to abandon
	// in-flight work rather than merely switch.
	Clean bool

	// cursor is the next unassigned nonce-range start.
	cursor atomic.Uint64

	// frame caches the marshal-once notify serialization (built on
	// first use; racing builders produce identical bytes, so last
	// store wins harmlessly).
	frame atomic.Pointer[notifyFrame]
}

// notifyFrame returns the job's pre-serialized notify message, building
// it on first use.
func (j *Job) notifyFrame() *notifyFrame {
	if f := j.frame.Load(); f != nil {
		return f
	}
	f := buildNotifyFrame(j)
	j.frame.Store(f)
	return f
}

// AssignRange carves the next [start, end) nonce window of the given size
// off the job. Safe for concurrent use; windows never overlap.
func (j *Job) AssignRange(size uint64) (start, end uint64) {
	if size == 0 {
		size = 1
	}
	end = j.cursor.Add(size)
	return end - size, end
}

// JobManager builds jobs from a TemplateSource and remembers recent ones
// so in-flight shares can still be judged. It is safe for concurrent use.
type JobManager struct {
	src       TemplateSource
	shareBits uint32
	rangeSize uint64
	retention int

	// refreshMu serializes Refresh end-to-end (template pull + install).
	// Without it a rolling refresh could pull a template off the old tip,
	// lose the race to a solved block's clean refresh, and then install
	// its stale-tip job as current.
	refreshMu sync.Mutex

	mu      sync.Mutex
	seq     uint64
	current *Job
	jobs    map[string]*Job
	order   []string
}

// NewJobManager creates a manager producing jobs at the given share
// difficulty, assigning per-subscriber nonce windows of rangeSize, and
// accepting shares for the last retention jobs (minimum 1).
func NewJobManager(src TemplateSource, shareBits uint32, rangeSize uint64, retention int) (*JobManager, error) {
	if _, err := pow.CompactToTarget(shareBits); err != nil {
		return nil, fmt.Errorf("pool: share bits: %w", err)
	}
	if retention < 1 {
		retention = 1
	}
	if rangeSize == 0 {
		rangeSize = DefaultRangeSize
	}
	return &JobManager{
		src:       src,
		shareBits: shareBits,
		rangeSize: rangeSize,
		retention: retention,
		jobs:      make(map[string]*Job),
	}, nil
}

// DefaultRangeSize is the nonce window handed to each subscriber per job
// when the server config does not override it.
const DefaultRangeSize = 1 << 20

// ShareBits returns the pool's share difficulty.
func (jm *JobManager) ShareBits() uint32 { return jm.shareBits }

// Refresh builds a new current job from a fresh template. With clean set
// the retention window is dropped too: every earlier job becomes stale at
// once (used when the chain tip moves). Without clean, earlier jobs
// remain valid until they age out of the retention window (used for
// periodic timestamp rolls).
func (jm *JobManager) Refresh(clean bool) (*Job, error) {
	jm.refreshMu.Lock()
	defer jm.refreshMu.Unlock()

	header, height, err := jm.src.Template()
	if err != nil {
		return nil, err
	}
	blockTarget, err := pow.CompactToTarget(header.Bits)
	if err != nil {
		return nil, err
	}

	jm.mu.Lock()
	defer jm.mu.Unlock()

	shareBits := jm.shareBits
	shareTarget, err := pow.CompactToTarget(shareBits)
	if err != nil {
		return nil, err
	}
	// A share target harder than the block target would reject valid
	// blocks as low-difficulty; clamp to the easier of the two.
	if shareTarget.Big().Cmp(blockTarget.Big()) < 0 {
		shareTarget = blockTarget
		shareBits = header.Bits
	}

	jm.seq++
	job := &Job{
		ID:          strconv.FormatUint(jm.seq, 10),
		Header:      header,
		Prefix:      header.MiningPrefix(),
		Height:      height,
		ShareBits:   shareBits,
		ShareTarget: shareTarget,
		BlockBits:   header.Bits,
		BlockTarget: blockTarget,
		ShareWork:   workFloat(shareTarget),
		Clean:       clean,
	}

	if clean {
		jm.jobs = make(map[string]*Job)
		jm.order = jm.order[:0]
	}
	for len(jm.order) >= jm.retention {
		delete(jm.jobs, jm.order[0])
		jm.order = jm.order[1:]
	}
	jm.jobs[job.ID] = job
	jm.order = append(jm.order, job.ID)
	jm.current = job
	return job, nil
}

// Current returns the latest job, or nil before the first Refresh.
func (jm *JobManager) Current() *Job {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	return jm.current
}

// Lookup resolves a job ID within the retention window.
func (jm *JobManager) Lookup(id string) (*Job, bool) {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	j, ok := jm.jobs[id]
	return j, ok
}

// LookupBytes resolves a job ID handed over as raw line bytes without
// allocating a string for the key (the compiler elides the conversion
// in the map index expression) — the admission tier's hot path.
func (jm *JobManager) LookupBytes(id []byte) (*Job, bool) {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	j, ok := jm.jobs[string(id)]
	return j, ok
}

// workFloat converts a target's expected work to float64 for accounting.
// Precision loss is irrelevant there; magnitudes up to ~2^256 collapse to
// +Inf only for a zero target, which CompactToTarget never yields for
// valid bits (and 0 work would only zero a hashrate estimate).
func workFloat(t pow.Target) float64 {
	f, _ := new(big.Float).SetInt(t.Work()).Float64()
	return f
}
