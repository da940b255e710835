package pool

import (
	"encoding/json"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hashcore/internal/baseline"
	"hashcore/internal/telemetry"
)

// admitVerify drives one share through the tiered ingest path exactly
// as the server does: admission pre-check on the caller's goroutine,
// then (if admitted) the fleet-side VerifyAdmitted.
func admitVerify(p *Precheck, v *ShareValidator, miner, jobID string, nonce uint64) ShareResult {
	job, rej, admitted := p.Admit(miner, []byte(jobID), nonce)
	if !admitted {
		return rej
	}
	hdr := make([]byte, 0, 128)
	return v.VerifyAdmitted(baseline.SHA256d{}, &hdr, miner, job, nonce)
}

// TestPrecheckEquivalence scripts one submission sequence hitting every
// verdict class and runs it through both ingest paths — the reference
// single-path Verify and the admission-tier + VerifyAdmitted split —
// on identically configured stacks. Every verdict (status and reason)
// must be identical: the admission tier moves checks earlier, it never
// changes what they decide.
func TestPrecheckEquivalence(t *testing.T) {
	type step struct {
		name    string
		miner   string
		jobID   func(cur, old *Job) string
		nonce   func(pass, fail uint64) uint64
		refresh bool // clean-refresh the job window before this step
	}
	cur := func(c, _ *Job) string { return c.ID }
	old := func(_, o *Job) string { return o.ID }
	pass := func(p, _ uint64) uint64 { return p }
	fail := func(_, f uint64) uint64 { return f }
	script := []step{
		{name: "accepted", miner: "alice", jobID: cur, nonce: pass},
		{name: "self-duplicate", miner: "alice", jobID: cur, nonce: pass},
		{name: "cross-miner-duplicate", miner: "bob", jobID: cur, nonce: pass},
		{name: "low-diff", miner: "alice", jobID: cur, nonce: fail},
		{name: "low-diff-replay", miner: "alice", jobID: cur, nonce: fail},
		{name: "unknown-job", miner: "alice", jobID: func(c, o *Job) string { return "no-such-job" }, nonce: pass},
		{name: "stale-after-clean", miner: "alice", jobID: old, nonce: pass, refresh: true},
	}

	run := func(t *testing.T, tiered bool) []ShareResult {
		t.Helper()
		v, jm, _, _ := newTestValidator(t, zeroBitsCompact(4), impossibleCompact, nil)
		pre := NewPrecheck(jm, v.seen, v.acct, 0, 0)
		oldJob := jm.Current()
		p, f := findNonces(t, baseline.SHA256d{}, oldJob)
		var out []ShareResult
		for _, st := range script {
			if st.refresh {
				if _, err := jm.Refresh(true); err != nil {
					t.Fatal(err)
				}
			}
			id := st.jobID(jm.Current(), oldJob)
			nonce := st.nonce(p, f)
			var res ShareResult
			if tiered {
				res = admitVerify(pre, v, st.miner, id, nonce)
			} else {
				res = verifyOne(v, st.miner, id, nonce)
			}
			out = append(out, res)
		}
		return out
	}

	ref := run(t, false)
	got := run(t, true)
	want := []ShareStatus{StatusAccepted, StatusDuplicate, StatusDuplicate,
		StatusLowDiff, StatusDuplicate, StatusStale, StatusStale}
	for i := range script {
		if ref[i].Status != want[i] {
			t.Fatalf("reference path %q: status %q, want %q", script[i].name, ref[i].Status, want[i])
		}
		if got[i].Status != ref[i].Status || got[i].Reason != ref[i].Reason {
			t.Errorf("step %q: tiered path = (%q, %q), reference = (%q, %q)",
				script[i].name, got[i].Status, got[i].Reason, ref[i].Status, ref[i].Reason)
		}
	}
}

func TestPrecheckRateLimit(t *testing.T) {
	v, jm, acct, _ := newTestValidator(t, zeroBitsCompact(4), impossibleCompact, nil)
	journal := telemetry.NewJournal(16)
	pre := NewPrecheck(jm, v.seen, acct, 1, 2) // 1 share/s sustained, burst 2
	pre.journal = journal
	now := time.Unix(1_700_000_000, 0)
	acct.now = func() time.Time { return now }
	job := jm.Current()

	// Burst admits two shares, then the bucket is dry.
	for i := uint64(0); i < 2; i++ {
		if _, _, admitted := pre.Admit("alice", []byte(job.ID), i); !admitted {
			t.Fatalf("share %d within burst was rejected", i)
		}
	}
	for i := uint64(2); i < 5; i++ {
		_, rej, admitted := pre.Admit("alice", []byte(job.ID), i)
		if admitted {
			t.Fatalf("share %d past burst was admitted", i)
		}
		if rej.Status != StatusInvalid || rej.Reason != "rate limited" {
			t.Fatalf("rejection = (%q, %q), want (invalid, rate limited)", rej.Status, rej.Reason)
		}
	}
	// One journal event per limited episode, not per rejected share.
	if evs := journal.Events(16); len(evs) != 1 || evs[0].Type != "pool_rate_limited" {
		t.Fatalf("journal events = %+v, want one pool_rate_limited", evs)
	}
	// Other miners are untouched by alice's flood.
	if _, _, admitted := pre.Admit("bob", []byte(job.ID), 100); !admitted {
		t.Fatal("bob was limited by alice's flood")
	}
	// Refill: two seconds restores two tokens and starts a new episode
	// when they run out again.
	now = now.Add(2 * time.Second)
	if _, _, admitted := pre.Admit("alice", []byte(job.ID), 10); !admitted {
		t.Fatal("share after refill was rejected")
	}
	now = now.Add(5 * time.Second) // cap at burst (2), spend both, dry again
	for i := uint64(20); i < 22; i++ {
		if _, _, admitted := pre.Admit("alice", []byte(job.ID), i); !admitted {
			t.Fatalf("share %d after refill was rejected", i)
		}
	}
	if _, _, admitted := pre.Admit("alice", []byte(job.ID), 30); admitted {
		t.Fatal("share past refilled burst was admitted")
	}
	if evs := journal.Events(16); len(evs) != 2 {
		t.Fatalf("journal events = %d, want 2 (one per episode)", len(evs))
	}
	if tot := acct.Totals(); tot.Invalid != 4 {
		t.Errorf("invalid total = %d, want 4 rate-limited shares", tot.Invalid)
	}
}

// TestSnapshotOmitsMinersWithoutVerdicts pins that an admitted share
// still waiting for its verdict does not list its miner: the token
// bucket spent at admission creates the miner's record, but Snapshot
// and Totals show a miner only once a verdict is booked.
func TestSnapshotOmitsMinersWithoutVerdicts(t *testing.T) {
	_, jm, acct, _ := newTestValidator(t, zeroBitsCompact(4), impossibleCompact, nil)
	pre := NewPrecheck(jm, NewSeenSet(1<<10), acct, 100, 0)
	job := jm.Current()
	if _, _, admitted := pre.Admit("alice", []byte(job.ID), 1); !admitted {
		t.Fatal("fresh share refused")
	}
	if snap := acct.Snapshot(); len(snap) != 0 {
		t.Fatalf("snapshot before any verdict = %+v, want empty", snap)
	}
	acct.Record("alice", StatusAccepted, job.ShareWork)
	if snap := acct.Snapshot(); len(snap) != 1 || snap[0].Miner != "alice" || snap[0].Accepted != 1 {
		t.Fatalf("snapshot after the verdict = %+v, want alice with one accepted share", snap)
	}
}

// TestPrecheckRateLimitConcurrent floods one miner from many
// goroutines on a frozen clock: the bucket and the ledger share one
// record under one lock, so exactly burst shares pass, every other one
// is booked as invalid, and the flood is one journal episode.
func TestPrecheckRateLimitConcurrent(t *testing.T) {
	v, jm, acct, _ := newTestValidator(t, zeroBitsCompact(4), impossibleCompact, nil)
	journal := telemetry.NewJournal(16)
	const (
		goroutines = 8
		perG       = 100
		burst      = 16
	)
	pre := NewPrecheck(jm, v.seen, acct, 1, burst)
	pre.journal = journal
	now := time.Unix(1_700_000_000, 0)
	acct.now = func() time.Time { return now }
	id := []byte(jm.Current().ID)

	var admitted atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if _, _, ok := pre.Admit("alice", id, uint64(g*perG+i)); ok {
					admitted.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()

	if got := admitted.Load(); got != burst {
		t.Errorf("admitted = %d, want %d (the burst)", got, burst)
	}
	if got, want := acct.Totals().Invalid, uint64(goroutines*perG-burst); got != want {
		t.Errorf("ledger invalid = %d, want %d", got, want)
	}
	if evs := journal.Events(16); len(evs) != 1 || evs[0].Type != "pool_rate_limited" {
		t.Errorf("journal events = %+v, want one pool_rate_limited", evs)
	}
}

func TestParseSubmitZeroAllocs(t *testing.T) {
	line := []byte(`{"type":"submit","job_id":"42","nonce":18446744073709551615}`)
	var (
		id    []byte
		nonce uint64
		ok    bool
	)
	allocs := testing.AllocsPerRun(200, func() {
		id, nonce, ok = parseSubmit(line)
	})
	if !ok || string(id) != "42" || nonce != 18446744073709551615 {
		t.Fatalf("parseSubmit = (%q, %d, %v)", id, nonce, ok)
	}
	if allocs != 0 {
		t.Errorf("parseSubmit allocates %v times per line, want 0", allocs)
	}
}

func TestPrecheckRejectPathZeroAllocs(t *testing.T) {
	// The flood-facing rejection paths must stay allocation-free after
	// warm-up: a duplicate storm is exactly when per-share garbage
	// would hurt.
	v, jm, acct, _ := newTestValidator(t, zeroBitsCompact(4), impossibleCompact, nil)
	pre := NewPrecheck(jm, v.seen, acct, 0, 0)
	job := jm.Current()
	id := []byte(job.ID)
	pre.Admit("alice", id, 7) // consume the dedupe key

	allocs := testing.AllocsPerRun(200, func() {
		if _, rej, admitted := pre.Admit("alice", id, 7); admitted || rej.Status != StatusDuplicate {
			t.Fatalf("replay = (%+v, %v), want duplicate reject", rej, admitted)
		}
	})
	if allocs != 0 {
		t.Errorf("duplicate-reject Admit allocates %v times per share, want 0", allocs)
	}
}

// FuzzParseSubmitAgreesWithJSON pins the fast submit scanner's contract:
// any line it accepts must decode identically under encoding/json, and
// any submit it declines must still be a line encoding/json either
// rejects or the slow path handles. (The scanner may decline valid but
// exotic encodings — that is the designed fallback — so only accepted
// lines are cross-checked.)
func FuzzParseSubmitAgreesWithJSON(f *testing.F) {
	f.Add([]byte(`{"type":"submit","job_id":"17","nonce":12345}`))
	f.Add([]byte(`{"type":"submit","job_id":"17","nonce":0}`))
	f.Add([]byte(`{"nonce":9,"type":"submit","job_id":"a"}`))
	f.Add([]byte(`{"type":"submit","job_id":"x","nonce":1,"extra":"y","flag":true,"z":null}`))
	f.Add([]byte(`{"type":"subscribe","miner":"alice"}`))
	f.Add([]byte(`{"type":"submit","job_id":"dup","nonce":1,"nonce":2}`))
	f.Add([]byte(`{"type":"submit","job_id":"A","nonce":3}`))
	f.Add([]byte(`{"type":"submit","job_id":"neg","nonce":-1}`))
	f.Add([]byte(` { "type" : "submit" , "job_id" : "ws" , "nonce" : 4 } `))
	f.Add([]byte(`{"type":"submit","job_id":"big","nonce":18446744073709551615}`))
	f.Add([]byte(`{"type":"submit","job_id":"of","nonce":18446744073709551616}`))
	f.Fuzz(func(t *testing.T, line []byte) {
		jobID, nonce, ok := parseSubmit(line)
		if !ok {
			return
		}
		var env Envelope
		if err := json.Unmarshal(line, &env); err != nil {
			t.Fatalf("fast path accepted %q but encoding/json rejects it: %v", line, err)
		}
		if env.Type != TypeSubmit {
			t.Fatalf("fast path accepted %q as submit but type = %q", line, env.Type)
		}
		if env.JobID != string(jobID) {
			t.Fatalf("job_id mismatch on %q: fast %q, json %q", line, jobID, env.JobID)
		}
		if env.Nonce != nonce {
			t.Fatalf("nonce mismatch on %q: fast %d, json %d", line, nonce, env.Nonce)
		}
	})
}

func TestParseSubmitRejectsNonCanonical(t *testing.T) {
	// Lines the fast scanner must hand to the slow path (or that are
	// outright invalid); none may be mis-decoded.
	for _, line := range []string{
		`{"type":"submit","job_id":"a","nonce":1.5}`,
		`{"type":"submit","job_id":"a","nonce":1e3}`,
		`{"type":"submit","job_id":"a","nonce":-1}`,
		`{"type":"submit","job_id":"a","nonce":01}`,
		`{"type":"submit","job_id":"\"a","nonce":1}`,
		`{"type":"submit","job_id":"a","nonce":1,"obj":{}}`,
		`{"type":"submit","job_id":"a","nonce":1,"arr":[1]}`,
		`{"type":"submit","job_id":"a","nonce":18446744073709551616}`,
		`{"type":"subscribe","job_id":"a","nonce":1}`,
		`{"type":"submit","job_id":"a","nonce":1}{"type":"submit"}`,
		`not json at all`,
	} {
		if _, _, ok := parseSubmit([]byte(line)); ok {
			t.Errorf("parseSubmit accepted %s", line)
		}
	}
}

func TestParseSubmitLastDuplicateKeyWins(t *testing.T) {
	// encoding/json takes the last duplicate key; the fast path must
	// agree or bail. It agrees.
	id, nonce, ok := parseSubmit([]byte(`{"type":"submit","job_id":"a","job_id":"b","nonce":1,"nonce":2}`))
	if !ok || string(id) != "b" || nonce != 2 {
		t.Fatalf("parseSubmit = (%q, %d, %v), want (b, 2, true)", id, nonce, ok)
	}
}

func BenchmarkPrecheckDuplicateReject(b *testing.B) {
	src := &stubSource{bits: zeroBitsCompact(8)}
	jm, err := NewJobManager(src, zeroBitsCompact(4), 1<<16, 2)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := jm.Refresh(true); err != nil {
		b.Fatal(err)
	}
	acct := NewAccounting()
	pre := NewPrecheck(jm, NewSeenSet(1<<16), acct, 0, 0)
	job := jm.Current()
	id := []byte(job.ID)
	pre.Admit("alice", id, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pre.Admit("alice", id, 1)
	}
}

// BenchmarkPrecheckRateLimitedReject times the reject a flood mostly
// gets once its miner's bucket is dry: pool_flood's junk connection,
// limited to 1,000 submits/s, sends about 200,000 a second, so nearly
// all of them end here.
func BenchmarkPrecheckRateLimitedReject(b *testing.B) {
	src := &stubSource{bits: zeroBitsCompact(8)}
	jm, err := NewJobManager(src, zeroBitsCompact(4), 1<<16, 2)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := jm.Refresh(true); err != nil {
		b.Fatal(err)
	}
	// A bucket of one token that refills about once in 30 years.
	pre := NewPrecheck(jm, NewSeenSet(1<<16), NewAccounting(), 1e-9, 1)
	id := []byte(jm.Current().ID)
	pre.Admit("alice", id, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := pre.Admit("alice", id, uint64(i)+2); ok {
			b.Fatal("share past the burst admitted")
		}
	}
}

// benchSubmitLine is a submit as pool.Client writes it, so the scanner
// benchmark fails if the client's own encoding ever misses the fast path.
// Marshalling an Envelope cannot fail.
var benchSubmitLine, _ = json.Marshal(&Envelope{Type: TypeSubmit, JobID: "123", Nonce: 1 << 40})

// BenchmarkParseSubmit and BenchmarkParseMsgSubmit price the submit
// scanner against the encoding/json path it bails out to, on the same
// line (DESIGN.md §15).
func BenchmarkParseSubmit(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, ok := parseSubmit(benchSubmitLine); !ok {
			b.Fatal("parse failed")
		}
	}
}

func BenchmarkParseMsgSubmit(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if env, err := parseMsg(benchSubmitLine); err != nil || env.Type != TypeSubmit {
			b.Fatal("parse failed", err)
		}
	}
}
