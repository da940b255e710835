package pool

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hashcore/internal/baseline"
)

// TestAccountingConcurrentSharded hammers the ledger from many writers
// across few miners — maximal contention on its one lock — while
// snapshot readers copy it mid-flight. Run under -race in CI; the final
// totals must be exact regardless of interleaving.
func TestAccountingConcurrentSharded(t *testing.T) {
	acct := NewAccounting()
	const (
		writers   = 8
		perWriter = 2400 // divisible by len(statuses), so per-class counts are exact
		miners    = 4
	)
	statuses := []ShareStatus{StatusAccepted, StatusStale, StatusDuplicate, StatusLowDiff, StatusInvalid, StatusBlock}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = acct.Snapshot()
				_ = acct.Totals()
				_ = hashrateOf(acct, "miner-0")
			}
		}()
	}

	var writersWg sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWg.Add(1)
		go func(w int) {
			defer writersWg.Done()
			for i := 0; i < perWriter; i++ {
				miner := fmt.Sprintf("miner-%d", i%miners)
				acct.Record(miner, statuses[i%len(statuses)], 10)
			}
		}(w)
	}
	writersWg.Wait()
	close(stop)
	readers.Wait()

	tot := acct.Totals()
	total := writers * perWriter
	per := uint64(total / len(statuses))
	// StatusBlock is counted under both Accepted and Blocks.
	if want := 2 * per; tot.Accepted != want {
		t.Errorf("accepted = %d, want %d", tot.Accepted, want)
	}
	if tot.Blocks != per {
		t.Errorf("blocks = %d, want %d", tot.Blocks, per)
	}
	if tot.Stale != per || tot.Duplicate != per || tot.LowDiff != per || tot.Invalid != per {
		t.Errorf("totals = %+v, want %d of each reject class", tot, per)
	}
	if want := float64(2*per) * 10; tot.ShareWork != want {
		t.Errorf("share work = %v, want %v", tot.ShareWork, want)
	}
	snap := acct.Snapshot()
	if len(snap) != miners {
		t.Fatalf("snapshot has %d miners, want %d", len(snap), miners)
	}
}

// BenchmarkAccountingRecordParallel books accepted shares from every
// P at once, on one miner (one record, full contention) and on 64.
func BenchmarkAccountingRecordParallel(b *testing.B) {
	for _, miners := range []int{1, 64} {
		b.Run(fmt.Sprintf("miners=%d", miners), func(b *testing.B) {
			acct := NewAccounting()
			names := make([]string, miners)
			for i := range names {
				names[i] = fmt.Sprintf("miner-%d", i)
			}
			var next atomic.Int64
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				i := int(next.Add(1))
				for pb.Next() {
					acct.Record(names[i%miners], StatusAccepted, 1)
					i++
				}
			})
		})
	}
}

// TestIngestConcurrentEndToEnd drives the full tiered ingest — admission
// pre-check on submitter goroutines, fleet verification, ledger
// merge — from many miners at once, with duplicate traffic mixed in.
// Exactly one submission per (job, nonce) pair may reach a hashing
// session; the rest must be rejected at admission, whichever connection
// goroutine races them in.
func TestIngestConcurrentEndToEnd(t *testing.T) {
	v, jm, acct, _ := newTestValidator(t, zeroBitsCompact(0), impossibleCompact, nil)
	pre := NewPrecheck(jm, v.seen, acct, 0, 0)
	pipe := NewPipeline(v, baseline.SHA256d{}, 4, 64)
	job := jm.Current()
	id := []byte(job.ID)

	const (
		miners    = 8
		perMiner  = 200
		replayers = 2 // extra goroutines replaying every nonce
	)
	var verdicts atomic.Int64
	reply := func(ShareResult) { verdicts.Add(1) }

	var wg sync.WaitGroup
	submit := func(miner string, nonce uint64) {
		j, rej, admitted := pre.Admit(miner, id, nonce)
		if !admitted {
			if rej.Status != StatusDuplicate {
				t.Errorf("unexpected admission reject: %+v", rej)
			}
			verdicts.Add(1)
			return
		}
		if err := pipe.SubmitAdmitted(context.Background(), miner, j, nonce, reply); err != nil {
			t.Errorf("submit: %v", err)
		}
	}
	for m := 0; m < miners; m++ {
		miner := fmt.Sprintf("m%d", m)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < perMiner; n++ {
				submit(miner, uint64(n))
			}
		}()
	}
	// Replayers hit the same nonce space: every nonce is contested by
	// miners+replayers submitters, and exactly one wins admission.
	for r := 0; r < replayers; r++ {
		miner := fmt.Sprintf("replay%d", r)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < perMiner; n++ {
				submit(miner, uint64(n))
			}
		}()
	}
	// Snapshot readers run throughout.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = acct.Snapshot()
			_ = pipe.QueueDepth()
		}
	}()

	wg.Wait()
	pipe.Close()
	close(stop)
	readers.Wait()

	total := int64((miners + replayers) * perMiner)
	if got := verdicts.Load(); got != total {
		t.Fatalf("verdicts = %d, want %d", got, total)
	}
	tot := acct.Totals()
	if tot.Accepted != perMiner {
		t.Errorf("accepted = %d, want %d (one winner per nonce)", tot.Accepted, perMiner)
	}
	if want := uint64(total) - perMiner; tot.Duplicate != want {
		t.Errorf("duplicates = %d, want %d", tot.Duplicate, want)
	}
	if tot.Stale != 0 || tot.LowDiff != 0 || tot.Invalid != 0 {
		t.Errorf("unexpected verdicts in totals: %+v", tot)
	}
}

// rendezvousHasher's Hash returns only once two calls are inside it at
// the same time, or once abort closes (then with an error).
type rendezvousHasher struct {
	mu      sync.Mutex
	arrived int
	both    chan struct{}
	abort   chan struct{}
}

func (h *rendezvousHasher) Hash(b []byte) ([32]byte, error) {
	h.mu.Lock()
	if h.arrived++; h.arrived == 2 {
		close(h.both)
	}
	h.mu.Unlock()
	select {
	case <-h.both:
		return baseline.SHA256d{}.Hash(b)
	case <-h.abort:
		return [32]byte{}, errors.New("rendezvous aborted")
	}
}

func (h *rendezvousHasher) Name() string { return "rendezvous" }

// TestPipelineIgnoresMinerNames checks that any idle worker takes the
// next share, whoever submitted it. Two miners whose names fall in one
// class of FNV-1a mod 2 (the hash the fleet once routed shares by)
// submit one share each to a two-worker pipeline whose hasher lets a
// call finish only while the other is in flight: a fleet that routed
// shares by miner name would hand both to one worker and never finish
// either.
func TestPipelineIgnoresMinerNames(t *testing.T) {
	v, jm, _, _ := newTestValidator(t, zeroBitsCompact(0), impossibleCompact, nil)
	h := &rendezvousHasher{both: make(chan struct{}), abort: make(chan struct{})}
	p := NewPipeline(v, h, 2, 2)
	defer p.Close()

	miners := []string{"miner-0"}
	for i := 1; len(miners) < 2; i++ {
		name := fmt.Sprintf("miner-%d", i)
		if fnv1a(name)%2 == fnv1a(miners[0])%2 {
			miners = append(miners, name)
		}
	}
	verdicts := make(chan ShareResult, len(miners))
	reply := func(r ShareResult) { verdicts <- r }
	job := jm.Current()
	for i, miner := range miners {
		if err := p.SubmitAdmitted(context.Background(), miner, job, uint64(i), reply); err != nil {
			t.Fatal(err)
		}
	}
	timeout := time.After(10 * time.Second)
	for range miners {
		select {
		case r := <-verdicts:
			if r.Status != StatusAccepted {
				t.Fatalf("verdict = %+v, want accepted", r)
			}
		case <-timeout:
			close(h.abort)
			t.Fatalf("shares of %q were not verified at once by two workers", miners)
		}
	}
}

// fnv1a is FNV-1a over a miner name.
func fnv1a(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
