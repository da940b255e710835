package main

import (
	"context"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"hashcore"
	"hashcore/internal/telemetry"
)

// checksumSeed is the seed the committed digest checksums were taken at.
const checksumSeed = 2019

// testdata/checksums.json holds, per mine_* workload, the XOR-fold of the
// digests of the canonical inputs for seed 2019 as the interpreter
// produced them. TestChecksumFixtures regenerates and compares them.
//
//go:embed testdata/checksums.json
var checksumsJSON []byte

func committedChecksum(workload string) (string, error) {
	var m map[string]string
	if err := json.Unmarshal(checksumsJSON, &m); err != nil {
		return "", fmt.Errorf("testdata/checksums.json: %w", err)
	}
	return m[workload], nil
}

// mineInst is the miner's case: T long-lived sessions, each hashing
// 80-byte headers prefix‖nonce in a closed loop.
type mineInst struct {
	e        *env
	name     string
	profile  string
	backend  string
	h        *hashcore.Hasher
	reg      *telemetry.Registry // nil unless traced
	sessions []*hashcore.Session
	timings  []hashcore.PhaseTimings // per session, traced runs only
	prefix   []byte
	next     []uint64 // next nonce counter per session
}

func mineSetup(profile, backend string) func(*env, bool) (instance, error) {
	name := "mine_" + profile
	if backend == "interp" {
		name += "_interp"
	}
	return func(e *env, traced bool) (instance, error) {
		mi := &mineInst{e: e, name: name, profile: profile, backend: backend}
		opts := []hashcore.Option{hashcore.WithProfile(profile), hashcore.WithBackend(backend)}
		if traced {
			mi.reg = telemetry.NewRegistry()
			opts = append(opts, hashcore.WithTelemetry(mi.reg))
		}
		var err error
		if mi.h, err = hashcore.New(opts...); err != nil {
			return nil, err
		}
		mi.prefix = make([]byte, 72)
		r := e.rng(name + "/prefix")
		for i := range mi.prefix {
			mi.prefix[i] = byte(r.Uint32())
		}
		mi.sessions = make([]*hashcore.Session, e.threads)
		mi.timings = make([]hashcore.PhaseTimings, e.threads)
		mi.next = make([]uint64, e.threads)
		var wg sync.WaitGroup
		errs := make([]error, e.threads)
		for i := range mi.sessions {
			mi.sessions[i] = mi.h.NewSession()
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				in := make([]byte, 80)
				// Warm up by the clock, not by count: a set-up then takes
				// about as long on a slow hour of the host as on a fast one,
				// and what a change adds to set-up still adds to it.
				until := time.Now().Add(e.size.warmup)
				for k := uint64(0); errs[i] == nil && time.Now().Before(until); k++ {
					// Warm-up nonces sit below the streams the run uses.
					_, errs[i] = mi.sessions[i].Hash(mi.input(in, i, 1<<39+k))
				}
			}(i)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			mi.close()
			return nil, err
		}
		return mi, nil
	}
}

// input writes the k-th header of session i's nonce stream into buf.
func (mi *mineInst) input(buf []byte, session int, k uint64) []byte {
	copy(buf, mi.prefix)
	binary.LittleEndian.PutUint64(buf[72:], uint64(session)<<40|k)
	return buf[:80]
}

// canonical returns the first n headers of session 0's stream: the inputs
// behind the checksum, the alloc count, the engine cross-check and the
// decomposed replay.
func (mi *mineInst) canonical(n int) [][]byte {
	ins := make([][]byte, n)
	for k := range ins {
		ins[k] = mi.input(make([]byte, 80), 0, uint64(k))
	}
	return ins
}

func (mi *mineInst) close() error {
	for _, s := range mi.sessions {
		if s != nil {
			s.Close()
		}
	}
	return nil
}

// mineRepLen is the length of one repetition of the mining loop.
const mineRepLen = 500 * time.Millisecond

// measure lets every session hash for d without a pause. Each session cuts
// its own run into repetitions of about mineRepLen, and a repetition is one
// session's, not all sessions' together: a neighbour on the host slows one
// vCPU at a time, so the sessions are seldom quiet in the same half second.
// A repetition's throughput is its session's rate times the session count;
// the other sessions are hashing all the while, so what they cost each
// other is in it.
func (mi *mineInst) measure(d time.Duration) (*outcome, error) {
	type lane struct {
		ops []float64
		lat [][]float64
		err error
	}
	lanes := make([]lane, len(mi.sessions))
	countedBefore := regValue(mi.reg, "hashcore_hashes_total")
	repLen := d / time.Duration(repsIn(d, mineRepLen))
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for i := range mi.sessions {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, l, in := mi.sessions[i], &lanes[i], make([]byte, 80)
			for t0 := time.Now(); t0.Before(deadline); {
				start, lat := t0, make([]float64, 0, 1024)
				// A repetition ends with the hash that crosses its cut.
				for cut := start.Add(repLen); t0.Before(cut); {
					mi.input(in, i, mi.next[i])
					mi.next[i]++
					if mi.reg != nil {
						_, l.err = s.HashTimed(in, &mi.timings[i])
					} else {
						_, l.err = s.Hash(in)
					}
					if l.err != nil {
						return
					}
					t1 := time.Now()
					lat = append(lat, float64(t1.Sub(t0).Nanoseconds())/1e3)
					t0 = t1
				}
				l.ops = append(l.ops, float64(len(mi.sessions)*len(lat))/t0.Sub(start).Seconds())
				l.lat = append(l.lat, lat)
			}
		}(i)
	}
	wg.Wait()
	o := &outcome{}
	for _, l := range lanes {
		if l.err != nil {
			return nil, l.err
		}
		o.ops = append(o.ops, l.ops...)
		o.lat = append(o.lat, l.lat...)
		for _, lat := range l.lat {
			o.attempted += len(lat)
		}
	}
	o.fact("insitu.hashes_counted", regValue(mi.reg, "hashcore_hashes_total")-countedBefore)
	return o, mi.check(o)
}

// foldDigests XORs the digests together: the checksum a fixture commits.
func foldDigests(ds []hashcore.Digest) string {
	var fold hashcore.Digest
	for _, d := range ds {
		for b := range fold {
			fold[b] ^= d[b]
		}
	}
	return hex.EncodeToString(fold[:])
}

// hashAll hashes every input on s into out, allocating nothing itself.
func hashAll(s *hashcore.Session, ins [][]byte, out []hashcore.Digest) error {
	for k, in := range ins {
		var err error
		if out[k], err = s.Hash(in); err != nil {
			return err
		}
	}
	return nil
}

// agree books one digest comparison per input: got against want.
func (o *outcome) agree(got, want []hashcore.Digest, format string, args ...any) {
	wrong := 0
	for k := range want {
		if got[k] != want[k] {
			wrong++
		}
	}
	o.attempted += len(want)
	o.fail(wrong, format, args...)
}

// checksum books the comparison of the digests' fold with the committed
// checksum of the workload.
func (o *outcome) checksum(workload string, ds []hashcore.Digest) error {
	want, err := committedChecksum(workload)
	if err != nil {
		return err
	}
	o.attempted++
	if got := foldDigests(ds); got != want {
		o.fail(1, "digest checksum %s differs from the committed %s", got, want)
	}
	return nil
}

// check verifies outputs on the canonical inputs: the digests fold to the
// committed checksum (at the checksum seed), further passes over the same
// inputs allocate nothing and repeat them, and the other engine agrees.
func (mi *mineInst) check(o *outcome) error {
	ins := mi.canonical(mi.e.size.checkInputs)
	s := mi.sessions[0]
	digests := make([]hashcore.Digest, len(ins))
	again := make([]hashcore.Digest, len(ins))
	if err := hashAll(s, ins, digests); err != nil {
		return err
	}
	o.attempted += len(ins)
	if mi.e.seed == checksumSeed && mi.e.size.checkInputs == fullSizes.checkInputs {
		if err := o.checksum(mi.name, digests); err != nil {
			return err
		}
	}

	// Every buffer has now seen these widgets, so the passes below are the
	// steady state a miner lives in: they must not allocate. The runtime
	// itself allocates an object now and then (more often on a busy host),
	// so the count is the lowest of three passes and fails only from one
	// object per four hashes (and two in all) up; a hasher that allocates
	// does so on every hash of every pass. The count itself is
	// core.allocs_per_hash.
	least := ^uint64(0)
	for pass := 0; pass < 3; pass++ {
		flushFinalizers()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := hashAll(s, ins, again)
		runtime.ReadMemStats(&after)
		if err != nil {
			return err
		}
		least = min(least, after.Mallocs-before.Mallocs)
		o.agree(again, digests, "digest changed when the same input was hashed again")
	}
	o.fact("core.allocs_per_hash", float64(least)/float64(len(ins)))
	o.attempted++
	if least >= max(2, uint64(len(ins)+3)/4) {
		o.fail(1, "steady-state hashing allocated %d objects in %d hashes, want 0", least, len(ins))
	}

	other := "interp"
	if mi.backend == "interp" {
		other = "native" // resolves to the interpreter where no JIT exists
	}
	oh, err := hashcore.New(hashcore.WithProfile(mi.profile), hashcore.WithBackend(other))
	if err != nil {
		return err
	}
	os := oh.NewSession()
	defer os.Close()
	if err := hashAll(os, ins, again); err != nil {
		return err
	}
	o.agree(again, digests, "%s digest disagrees with the %s engine", mi.backend, other)
	return nil
}

func (mi *mineInst) layers(o *outcome, tr *tracer) (map[string]float64, error) {
	layers, mismatches, err := hashBudget(tr, mi.profile, mi.backend, mi.canonical(mi.e.size.replayN))
	if err != nil {
		return nil, err
	}
	o.attempted += mi.e.size.replayN
	o.fail(mismatches, "decomposed-replay digest differs from Session.Hash")

	// The traced run hashed through HashTimed: its fill wait covers every
	// hash of the run, not just the replayed inputs.
	var total hashcore.PhaseTimings
	for _, t := range mi.timings {
		total.FillNs += t.FillNs
		total.Hashes += t.Hashes
	}
	var pool []float64
	for _, r := range o.lat {
		pool = append(pool, r...)
	}
	if total.Hashes > 0 {
		wait := float64(total.FillNs) / float64(total.Hashes)
		layers["rng.fill_wait_ns_per_hash"] = wait
		layers["core.unattributed_pct"] = unattributedPct(layers, median(pool)*1e3, wait)
	}
	if counted := o.facts["insitu.hashes_counted"]; uint64(counted) != total.Hashes {
		o.attempted++
		o.fail(1, "registry counted %v hashes in the timed windows, the sessions made %d", counted, total.Hashes)
	}

	if p99, err := percentile(pool, 99); err == nil {
		layers["core.hash_p99_us"] = p99
	}
	layers["core.allocs_per_hash"] = o.facts["core.allocs_per_hash"]

	// One session alone, for the scaling sweep's other end.
	n := 2 * mi.e.size.replayN
	in := make([]byte, 80)
	t0 := time.Now()
	for k := 0; k < n; k++ {
		if _, err := mi.sessions[0].Hash(mi.input(in, 0, uint64(k))); err != nil {
			return nil, err
		}
	}
	alone := float64(n) / time.Since(t0).Seconds()
	layers["core.scaling_efficiency"] = median(o.ops) / (float64(len(mi.sessions)) * alone)

	// The library's own mining loop against a target no digest meets.
	attempts := uint64(n * len(mi.sessions))
	t0 = time.Now()
	_, err = mi.h.MineRange(context.Background(), mi.prefix, [32]byte{}, len(mi.sessions), 0, attempts)
	if !errors.Is(err, hashcore.ErrExhausted) {
		return nil, fmt.Errorf("MineRange against an impossible target: %v", err)
	}
	layers["pow.minerange_hashes_per_s"] = float64(attempts) / time.Since(t0).Seconds()
	return layers, nil
}
