package pool

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"runtime"
	"sync"
	"testing"
	"time"

	"hashcore/internal/baseline"
	"hashcore/internal/blockchain"
	"hashcore/internal/pow"
)

// stubSource is a TemplateSource over a fixed difficulty, bumping the
// template timestamp per call like a real chain source would.
type stubSource struct {
	mu        sync.Mutex
	bits      uint32
	height    int
	time      uint64
	submitted []blockchain.Header
	submitErr error
}

func (s *stubSource) Template() (blockchain.Header, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.time++
	return blockchain.Header{Version: 1, Time: s.time, Bits: s.bits}, s.height, nil
}

func (s *stubSource) SubmitBlock(h blockchain.Header) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.submitErr != nil {
		return s.submitErr
	}
	s.submitted = append(s.submitted, h)
	return nil
}

func (s *stubSource) blocks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.submitted)
}

// zeroBitsCompact returns the compact encoding of a target with
// (roughly) the given number of leading zero bits.
func zeroBitsCompact(bits uint) uint32 {
	v := new(big.Int).Rsh(new(big.Int).Lsh(big.NewInt(1), 256), bits)
	v.Sub(v, big.NewInt(1))
	return pow.TargetToCompact(pow.FromBig(v))
}

// impossibleCompact decodes to the zero target: no digest ever meets it.
const impossibleCompact = 0x01000001

// findNonces brute-forces one passing and one failing nonce for the
// job's share target with the given hasher.
func findNonces(t *testing.T, h pow.Hasher, job *Job) (pass, fail uint64) {
	t.Helper()
	hdr := make([]byte, len(job.Prefix)+8)
	copy(hdr, job.Prefix)
	foundPass, foundFail := false, false
	for n := uint64(0); n < 1<<20; n++ {
		binary.LittleEndian.PutUint64(hdr[len(job.Prefix):], n)
		d, err := h.Hash(hdr)
		if err != nil {
			t.Fatal(err)
		}
		if pow.Check(d, job.ShareTarget) {
			if !foundPass {
				pass, foundPass = n, true
			}
		} else if !foundFail {
			fail, foundFail = n, true
		}
		if foundPass && foundFail {
			return pass, fail
		}
	}
	t.Fatal("no pass/fail nonce pair found in 2^20 attempts")
	return 0, 0
}

// newTestValidator builds a validator over a stub source with the given
// share difficulty and an impossible block target (so the block path
// stays quiet unless a test opts in).
func newTestValidator(t *testing.T, shareBits, blockBits uint32, onBlock func(*Job, [32]byte, uint64)) (*ShareValidator, *JobManager, *Accounting, *stubSource) {
	t.Helper()
	src := &stubSource{bits: blockBits, height: 7}
	jm, err := NewJobManager(src, shareBits, 1<<16, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jm.Refresh(true); err != nil {
		t.Fatal(err)
	}
	acct := NewAccounting()
	return NewShareValidator(jm, NewSeenSet(1024), acct, onBlock), jm, acct, src
}

func verifyOne(v *ShareValidator, miner, jobID string, nonce uint64) ShareResult {
	hdr := make([]byte, 0, 128)
	return v.Verify(baseline.SHA256d{}, &hdr, miner, jobID, nonce)
}

func TestValidatorAcceptsGoodShare(t *testing.T) {
	v, jm, acct, _ := newTestValidator(t, zeroBitsCompact(4), impossibleCompact, nil)
	job := jm.Current()
	pass, _ := findNonces(t, baseline.SHA256d{}, job)

	res := verifyOne(v, "alice", job.ID, pass)
	if res.Status != StatusAccepted {
		t.Fatalf("status = %q (%s), want accepted", res.Status, res.Reason)
	}
	if !pow.Check(res.Digest, job.ShareTarget) {
		t.Error("reported digest does not meet the share target")
	}
	if res.Height != job.Height {
		t.Errorf("height = %d, want %d", res.Height, job.Height)
	}
	snap := acct.Snapshot()
	if len(snap) != 1 || snap[0].Miner != "alice" || snap[0].Accepted != 1 {
		t.Fatalf("accounting snapshot = %+v, want one accepted share for alice", snap)
	}
	if snap[0].ShareWork <= 0 {
		t.Error("accepted share booked no work")
	}
}

func TestDuplicateShareRejected(t *testing.T) {
	v, jm, acct, _ := newTestValidator(t, zeroBitsCompact(4), impossibleCompact, nil)
	job := jm.Current()
	pass, _ := findNonces(t, baseline.SHA256d{}, job)

	if res := verifyOne(v, "alice", job.ID, pass); res.Status != StatusAccepted {
		t.Fatalf("first submission: %q (%s)", res.Status, res.Reason)
	}
	res := verifyOne(v, "alice", job.ID, pass)
	if res.Status != StatusDuplicate {
		t.Fatalf("second submission: %q, want duplicate", res.Status)
	}
	// A different miner replaying the share is a duplicate too.
	if res := verifyOne(v, "bob", job.ID, pass); res.Status != StatusDuplicate {
		t.Fatalf("cross-miner replay: %q, want duplicate", res.Status)
	}
	tot := acct.Totals()
	if tot.Accepted != 1 || tot.Duplicate != 2 {
		t.Errorf("totals = %+v, want 1 accepted / 2 duplicate", tot)
	}
}

func TestStaleJobRejected(t *testing.T) {
	v, jm, acct, _ := newTestValidator(t, zeroBitsCompact(4), impossibleCompact, nil)
	job := jm.Current()

	if res := verifyOne(v, "alice", "no-such-job", 1); res.Status != StatusStale {
		t.Fatalf("unknown job: %q, want stale", res.Status)
	}
	// A clean refresh (new chain tip) stales every outstanding job.
	if _, err := jm.Refresh(true); err != nil {
		t.Fatal(err)
	}
	pass, _ := findNonces(t, baseline.SHA256d{}, job)
	if res := verifyOne(v, "alice", job.ID, pass); res.Status != StatusStale {
		t.Fatalf("post-clean submission: %q, want stale", res.Status)
	}
	if tot := acct.Totals(); tot.Stale != 2 || tot.Accepted != 0 {
		t.Errorf("totals = %+v, want 2 stale", tot)
	}
}

func TestLowDifficultyShareRejected(t *testing.T) {
	v, jm, acct, _ := newTestValidator(t, zeroBitsCompact(4), impossibleCompact, nil)
	job := jm.Current()
	_, fail := findNonces(t, baseline.SHA256d{}, job)

	res := verifyOne(v, "alice", job.ID, fail)
	if res.Status != StatusLowDiff {
		t.Fatalf("status = %q, want low_diff", res.Status)
	}
	if res.Digest == ([32]byte{}) {
		t.Error("low-diff verdict should still report the digest")
	}
	if tot := acct.Totals(); tot.LowDiff != 1 || tot.Accepted != 0 {
		t.Errorf("totals = %+v, want 1 low_diff", tot)
	}
	// Rejected-for-difficulty shares still enter the seen set: resubmitting
	// the same bad share is a duplicate, not another hash evaluation.
	if res := verifyOne(v, "alice", job.ID, fail); res.Status != StatusDuplicate {
		t.Fatalf("resubmitted low-diff share: %q, want duplicate", res.Status)
	}
}

func TestBlockSolvingShare(t *testing.T) {
	// Block target as easy as the share target: the passing share solves
	// the block.
	var gotBlock []uint64
	var mu sync.Mutex
	onBlock := func(j *Job, digest [32]byte, nonce uint64) {
		mu.Lock()
		gotBlock = append(gotBlock, nonce)
		mu.Unlock()
	}
	v, jm, acct, _ := newTestValidator(t, zeroBitsCompact(4), zeroBitsCompact(4), onBlock)
	job := jm.Current()
	pass, _ := findNonces(t, baseline.SHA256d{}, job)

	res := verifyOne(v, "alice", job.ID, pass)
	if res.Status != StatusBlock {
		t.Fatalf("status = %q, want block", res.Status)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(gotBlock) != 1 || gotBlock[0] != pass {
		t.Fatalf("onBlock calls = %v, want [%d]", gotBlock, pass)
	}
	tot := acct.Totals()
	if tot.Accepted != 1 || tot.Blocks != 1 {
		t.Errorf("totals = %+v, want accepted=1 blocks=1", tot)
	}
}

func TestShareTargetClampedToBlockTarget(t *testing.T) {
	// Share difficulty harder than the network's would reject valid
	// blocks; the job manager must clamp to the easier block target.
	src := &stubSource{bits: zeroBitsCompact(4)}
	jm, err := NewJobManager(src, zeroBitsCompact(30), 1<<16, 2)
	if err != nil {
		t.Fatal(err)
	}
	job, err := jm.Refresh(true)
	if err != nil {
		t.Fatal(err)
	}
	if job.ShareTarget != job.BlockTarget {
		t.Errorf("share target %x not clamped to block target %x",
			job.ShareTarget[:4], job.BlockTarget[:4])
	}
	if job.ShareBits != job.BlockBits {
		t.Errorf("share bits %#x not clamped to block bits %#x", job.ShareBits, job.BlockBits)
	}
}

func TestHashrateEstimate(t *testing.T) {
	acct := NewAccounting()
	base := time.Unix(1_700_000_000, 0)
	now := base
	acct.now = func() time.Time { return now }

	const work = 1000.0
	for i := 0; i < 5; i++ {
		acct.Record("alice", StatusAccepted, work)
		now = now.Add(2 * time.Second) // shares at t=0,2,4,6,8; final now t=10
	}
	// 5 shares × 1000 expected hashes over 10 s → 500 H/s.
	got := acct.Hashrate("alice")
	if got != 500 {
		t.Errorf("hashrate = %v, want 500", got)
	}
	// Non-accepted statuses must not distort the estimate.
	acct.Record("alice", StatusLowDiff, work)
	acct.Record("alice", StatusStale, work)
	if got := acct.Hashrate("alice"); got != 500 {
		t.Errorf("hashrate after rejects = %v, want 500", got)
	}
	if acct.Hashrate("nobody") != 0 {
		t.Error("unknown miner should estimate 0")
	}
}

func TestHashrateSingleShareSane(t *testing.T) {
	// One share an instant after startup must not read as an absurd rate:
	// the estimation window is floored at one second.
	acct := NewAccounting()
	base := time.Unix(1_700_000_000, 0)
	now := base
	acct.now = func() time.Time { return now }
	acct.Record("alice", StatusAccepted, 4096)
	now = now.Add(10 * time.Millisecond)
	if got := acct.Hashrate("alice"); got > 4096 {
		t.Errorf("hashrate = %v exceeds the share's own work %v", got, 4096.0)
	}
}

func TestServerShutdownWithoutStart(t *testing.T) {
	// A server that never Starts (or whose Start failed) must still stop
	// its verification workers on Shutdown.
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		srv, err := NewServer(Config{
			ShareBits:     zeroBitsCompact(4),
			VerifyWorkers: 4,
		}, baseline.SHA256d{}, &stubSource{bits: zeroBitsCompact(8)})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	// Give exited workers a moment to unwind before counting.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before+2 {
		t.Errorf("goroutines grew from %d to %d: verification workers leaked", before, got)
	}
}

// gateHasher blocks every Hash call until released, for queue tests.
type gateHasher struct{ release chan struct{} }

func (g gateHasher) Hash(b []byte) ([32]byte, error) {
	<-g.release
	return baseline.SHA256d{}.Hash(b)
}
func (g gateHasher) Name() string { return "gate" }

// submitShare drives one share into a bare pipeline the way the server
// does: admission on the caller's goroutine, then the fleet.
func submitShare(ctx context.Context, pre *Precheck, p *Pipeline, miner, jobID string, nonce uint64, reply func(ShareResult)) error {
	job, rej, admitted := pre.Admit(miner, []byte(jobID), nonce)
	if !admitted {
		return fmt.Errorf("rejected at admission: %+v", rej)
	}
	return p.SubmitAdmitted(ctx, miner, job, nonce, reply)
}

func TestPipelineBackpressureAndClose(t *testing.T) {
	v, jm, _, _ := newTestValidator(t, zeroBitsCompact(4), impossibleCompact, nil)
	job := jm.Current()

	gate := gateHasher{release: make(chan struct{})}
	p := NewPipeline(v, gate, 1, 1)
	pre := NewPrecheck(jm, v.seen, v.acct, 0, 0)

	var mu sync.Mutex
	var got []ShareResult
	reply := func(r ShareResult) {
		mu.Lock()
		got = append(got, r)
		mu.Unlock()
	}
	// First submit is picked up by the worker (blocked in Hash); second
	// fills the queue.
	if err := submitShare(context.Background(), pre, p, "m", job.ID, 1, reply); err != nil {
		t.Fatal(err)
	}
	if err := submitShare(context.Background(), pre, p, "m", job.ID, 2, reply); err != nil {
		t.Fatal(err)
	}
	// Queue full: a third submit must block until its context expires —
	// that is the backpressure contract.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := submitShare(ctx, pre, p, "m", job.ID, 3, reply); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("submit into full queue: err = %v, want deadline exceeded", err)
	}

	close(gate.release)
	p.Close() // drains both queued shares
	mu.Lock()
	n := len(got)
	mu.Unlock()
	if n != 2 {
		t.Fatalf("replies after close = %d, want 2", n)
	}
	if err := submitShare(context.Background(), pre, p, "m", job.ID, 4, reply); !errors.Is(err, ErrPipelineClosed) {
		t.Fatalf("submit after close: err = %v, want ErrPipelineClosed", err)
	}
	p.Close() // idempotent
}

func TestPipelineConcurrentSubmits(t *testing.T) {
	v, jm, acct, _ := newTestValidator(t, zeroBitsCompact(0), impossibleCompact, nil)
	job := jm.Current()
	p := NewPipeline(v, baseline.SHA256d{}, 4, 8)
	pre := NewPrecheck(jm, v.seen, v.acct, 0, 0)

	const n = 200
	var wg sync.WaitGroup
	done := make(chan ShareResult, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(nonce uint64) {
			defer wg.Done()
			if err := submitShare(context.Background(), pre, p, "m", job.ID, nonce, func(r ShareResult) { done <- r }); err != nil {
				t.Errorf("submit: %v", err)
			}
		}(uint64(i))
	}
	wg.Wait()
	p.Close()
	close(done)
	var verdicts int
	for range done {
		verdicts++
	}
	if verdicts != n {
		t.Fatalf("verdicts = %d, want %d", verdicts, n)
	}
	tot := acct.Totals()
	if got := tot.Accepted + tot.LowDiff + tot.Duplicate; got != n {
		t.Fatalf("accounted shares = %d (%+v), want %d", got, tot, n)
	}
	if tot.Duplicate != 0 {
		t.Errorf("distinct nonces produced %d duplicates", tot.Duplicate)
	}
}
