package pool

import (
	"bufio"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"hashcore/internal/baseline"
)

// TestNotifyFrameMatchesJSON pins the marshal-once broadcast frame to
// encoding/json's output for the same Envelope: clients must not be
// able to tell which path produced a notify.
func TestNotifyFrameMatchesJSON(t *testing.T) {
	src := &stubSource{bits: zeroBitsCompact(8), height: 42}
	jm, err := NewJobManager(src, zeroBitsCompact(4), 1<<16, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, clean := range []bool{true, false} {
		job, err := jm.Refresh(clean)
		if err != nil {
			t.Fatal(err)
		}
		for _, win := range [][2]uint64{{0, 1 << 16}, {1 << 40, 1<<40 + 1<<16}, {0, 0}} {
			env := Envelope{Type: TypeNotify, Job: &JobNotify{
				ID:         job.ID,
				Prefix:     hex.EncodeToString(job.Prefix),
				ShareBits:  job.ShareBits,
				BlockBits:  job.BlockBits,
				NonceStart: win[0],
				NonceEnd:   win[1],
				Height:     job.Height,
				Clean:      job.Clean,
			}}
			want, err := json.Marshal(&env)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, '\n')
			got := job.notifyFrame().render(nil, win[0], win[1])
			if string(got) != string(want) {
				t.Fatalf("clean=%v window=%v:\nframe: %s\n json: %s", clean, win, got, want)
			}
		}
	}
}

// fanoutClient is one in-memory subscriber: a pipe served by the pool
// server on one end, with helpers to subscribe and read notifies on the
// other.
type fanoutClient struct {
	t    *testing.T
	conn net.Conn
	rd   *bufio.Reader
}

func newFanoutClient(t *testing.T, s *Server, miner string) *fanoutClient {
	t.Helper()
	client, server := net.Pipe()
	if err := s.ServeConn(server); err != nil {
		t.Fatal(err)
	}
	c := &fanoutClient{t: t, conn: client, rd: bufio.NewReader(client)}
	t.Cleanup(func() { client.Close() })
	if err := writeMsg(c.conn, &Envelope{Type: TypeSubscribe, Miner: miner}); err != nil {
		t.Fatal(err)
	}
	// Drain the subscription handshake: subscribed, set_target, notify.
	for _, want := range []string{TypeSubscribed, TypeSetTarget, TypeNotify} {
		env := c.read()
		if env.Type != want {
			t.Fatalf("handshake message = %q, want %q", env.Type, want)
		}
	}
	return c
}

func (c *fanoutClient) read() Envelope {
	c.t.Helper()
	_ = c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := c.rd.ReadBytes('\n')
	if err != nil {
		c.t.Fatalf("read: %v", err)
	}
	env, err := parseMsg(line)
	if err != nil {
		c.t.Fatal(err)
	}
	return env
}

// TestStalledConnNeverDelaysOthers is the broadcast-isolation contract:
// a subscriber that stops draining its socket must not delay notifies
// to healthy subscribers, must not block the broadcaster, and is
// eventually dropped.
func TestStalledConnNeverDelaysOthers(t *testing.T) {
	srv, err := NewServer(Config{
		Addr:            "127.0.0.1:0",
		ShareBits:       zeroBitsCompact(4),
		VerifyWorkers:   1,
		NotifyQueue:     4,
		WriteTimeout:    200 * time.Millisecond,
		RefreshInterval: -1,
		Logf:            func(string, ...any) {},
	}, baseline.SHA256d{}, &stubSource{bits: zeroBitsCompact(8)})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	healthy := newFanoutClient(t, srv, "healthy")
	stalled := newFanoutClient(t, srv, "stalled")
	_ = stalled // subscribed, then never reads again

	// Broadcast more jobs than the stalled conn's queue can hold. The
	// broadcaster must never block (net.Pipe writes are fully
	// synchronous, so any coupling to the stalled conn would show up as
	// seconds of stall here), and the healthy subscriber must see every
	// job.
	const rounds = 8
	start := time.Now()
	for i := 0; i < rounds; i++ {
		if err := srv.RefreshNow(false); err != nil {
			t.Fatal(err)
		}
		env := healthy.read()
		if env.Type != TypeNotify {
			t.Fatalf("round %d: healthy got %q, want notify", i, env.Type)
		}
		if env.Job == nil || env.Job.NonceEnd <= env.Job.NonceStart {
			t.Fatalf("round %d: bad notify window %+v", i, env.Job)
		}
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("8 broadcasts took %v: stalled conn delayed the fan-out", elapsed)
	}

	// The stalled conn overflowed its queue and was condemned.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if v, _ := srv.Metrics().Value("pool_conns_dropped_slow_total"); v >= 1 {
			break
		}
		if time.Now().After(deadline) {
			v, _ := srv.Metrics().Value("pool_conns_dropped_slow_total")
			t.Fatalf("dropped-conn counter = %v, want >= 1", v)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The healthy conn still works end to end: submit a share, get a
	// verdict (routed through its writer queue).
	if err := writeMsg(healthy.conn, &Envelope{Type: TypeSubmit, JobID: "no-such-job", Nonce: 1}); err != nil {
		t.Fatal(err)
	}
	env := healthy.read()
	if env.Type != TypeResult || env.Status != StatusStale {
		t.Fatalf("post-stall submit verdict = %+v, want stale result", env)
	}
}

// TestServeConnSharesVerify exercises the full ingest path over an
// in-memory connection: admitted share → fleet → verdict on
// the writer queue, plus the admission rejects for duplicates.
func TestServeConnSharesVerify(t *testing.T) {
	srv, err := NewServer(Config{
		Addr:            "127.0.0.1:0",
		ShareBits:       zeroBitsCompact(4),
		VerifyWorkers:   2,
		RefreshInterval: -1,
		Logf:            func(string, ...any) {},
	}, baseline.SHA256d{}, &stubSource{bits: zeroBitsCompact(8)})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	cl := newFanoutClient(t, srv, "alice")
	job := srv.Jobs().Current()
	pass, fail := findNonces(t, baseline.SHA256d{}, job)

	cases := []struct {
		nonce uint64
		want  ShareStatus
	}{
		{pass, StatusAccepted},
		{pass, StatusDuplicate}, // rejected at admission
		{fail, StatusLowDiff},
	}
	for _, tc := range cases {
		if err := writeMsg(cl.conn, &Envelope{Type: TypeSubmit, JobID: job.ID, Nonce: tc.nonce}); err != nil {
			t.Fatal(err)
		}
		env := cl.read()
		if env.Type != TypeResult || env.Status != tc.want {
			t.Fatalf("nonce %d: got (%q, %q, %q), want %q", tc.nonce, env.Type, env.Status, env.Reason, tc.want)
		}
	}
	if v, _ := srv.Metrics().Value("pool_precheck_rejects_total"); v != 1 {
		t.Errorf("precheck rejects = %v, want 1 (the duplicate)", v)
	}
}

// TestSubmitSpellingsShareOneVerdict sends one share in several JSON
// spellings on one connection. encoding/json decodes each to the same
// (job, nonce), duplicate keys taking the last value, so whichever
// decoder reads a line, the first is judged and the rest are duplicates,
// in the replies, the ledger and pool_shares_total alike.
func TestSubmitSpellingsShareOneVerdict(t *testing.T) {
	srv, err := NewServer(Config{
		Addr:            "127.0.0.1:0",
		ShareBits:       zeroBitsCompact(4),
		VerifyWorkers:   1,
		RefreshInterval: -1,
		Logf:            func(string, ...any) {},
	}, baseline.SHA256d{}, &stubSource{bits: zeroBitsCompact(8)})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	cl := newFanoutClient(t, srv, "alice")
	job := srv.Jobs().Current()
	pass, _ := findNonces(t, baseline.SHA256d{}, job)
	spellings := []string{
		`{"type":"submit","job_id":"%[1]s","nonce":%[2]d}`,
		`{"nonce":%[2]d,"job_id":"%[1]s","type":"submit"}`,
		` { "type" : "submit" , "job_id" : "%[1]s" , "nonce" : %[2]d } `,
		`{"TYPE":"submit","Job_ID":"%[1]s","NONCE":%[2]d}`,
		`{"type":"submit","job_id":"no-such-job","nonce":%[3]d,"job_id":"%[1]s","nonce":%[2]d}`,
	}
	for i, sp := range spellings {
		if _, err := fmt.Fprintf(cl.conn, sp+"\n", job.ID, pass, pass+1); err != nil {
			t.Fatal(err)
		}
		want := StatusDuplicate
		if i == 0 {
			want = StatusAccepted
		}
		env := cl.read()
		if env.Type != TypeResult || env.Status != want || env.JobID != job.ID || env.Nonce != pass {
			t.Fatalf("spelling %d: got (%q, %q, %q, %d), want %q for (%q, %d)",
				i, env.Type, env.Status, env.JobID, env.Nonce, want, job.ID, pass)
		}
	}
	dups := uint64(len(spellings) - 1)
	if tot := srv.Accounting().Totals(); tot.Accepted != 1 || tot.Duplicate != dups || tot.Stale+tot.LowDiff+tot.Invalid != 0 {
		t.Errorf("ledger = %+v, want 1 accepted and %d duplicate", tot, dups)
	}
	shares := map[string]float64{}
	for _, smp := range srv.Metrics().Gather() {
		if smp.Name == "pool_shares_total" {
			shares[smp.Labels] += smp.Value
		}
	}
	if shares[`{status="accepted"}`] != 1 || shares[`{status="duplicate"}`] != float64(dups) {
		t.Errorf("pool_shares_total = %v, want 1 accepted and %d duplicate", shares, dups)
	}
}

// TestSubmitWithoutJobIDIsCounted sends submits with no job_id past the
// miner's rate-limit burst. Each takes the admission path like any
// other share: the ones within the burst are judged stale (no such
// job), the rest rate limited, and the ledger books every one.
func TestSubmitWithoutJobIDIsCounted(t *testing.T) {
	const burst, sent = 4, 10
	srv, err := NewServer(Config{
		Addr:            "127.0.0.1:0",
		ShareBits:       zeroBitsCompact(4),
		VerifyWorkers:   1,
		RefreshInterval: -1,
		SubmitRate:      0.001, // no token refills while the test runs
		SubmitBurst:     burst,
		Logf:            func(string, ...any) {},
	}, baseline.SHA256d{}, &stubSource{bits: zeroBitsCompact(8)})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	cl := newFanoutClient(t, srv, "alice")
	for i := 1; i <= sent; i++ {
		if _, err := fmt.Fprintf(cl.conn, "{\"type\":\"submit\",\"nonce\":%d}\n", i); err != nil {
			t.Fatal(err)
		}
		env := cl.read()
		want := StatusStale
		if i > burst {
			want = StatusInvalid
		}
		if env.Type != TypeResult || env.Status != want {
			t.Fatalf("submit %d: got (%q, %q, %q), want %q", i, env.Type, env.Status, env.Reason, want)
		}
		if i > burst && env.Reason != "rate limited" {
			t.Fatalf("submit %d past the burst: reason %q, want rate limited", i, env.Reason)
		}
	}
	tot := srv.Accounting().Totals()
	if tot.Stale != burst || tot.Invalid != sent-burst {
		t.Errorf("ledger = %+v, want %d stale and %d invalid", tot, burst, sent-burst)
	}
	if v, _ := srv.Metrics().Value("pool_precheck_rejects_total"); v != sent {
		t.Errorf("precheck rejects = %v, want %d", v, sent)
	}
}

// BenchmarkBroadcastFanout times marshal-once broadcast fan-out: one
// clean-less job refresh reaching every one of conns subscribers. The
// subscribers sit on in-memory pipes, which need no file descriptors, so
// the 10k case fits where 10k sockets would not; it is the one pool
// measurement benchmark/ (connection budget: nproc) has no twin for.
func BenchmarkBroadcastFanout(b *testing.B) {
	for _, conns := range []int{256, 10000} {
		b.Run(fmt.Sprintf("conns=%d", conns), func(b *testing.B) { benchmarkFanout(b, conns) })
	}
}

func benchmarkFanout(b *testing.B, conns int) {
	srv, err := NewServer(Config{
		Addr:            "127.0.0.1:0",
		ShareBits:       zeroBitsCompact(0),
		VerifyWorkers:   1,
		RefreshInterval: -1,
		WriteTimeout:    30 * time.Second,
		Logf:            func(string, ...any) {},
	}, baseline.SHA256d{}, &stubSource{bits: impossibleCompact})
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		b.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	var notifies atomic.Int64
	subscribe := []byte(`{"type":"subscribe","miner":"fan"}` + "\n")
	for i := 0; i < conns; i++ {
		cl, sv := net.Pipe()
		if err := srv.ServeConn(sv); err != nil {
			b.Fatal(err)
		}
		defer cl.Close() // ends the reader below
		go func() {
			rd := bufio.NewReaderSize(cl, 2048)
			if _, err := cl.Write(subscribe); err != nil {
				return
			}
			for {
				line, err := rd.ReadSlice('\n')
				if err != nil {
					return
				}
				// Every notify line starts {"type":"notify"; the
				// handshake's other two messages do not.
				if len(line) > 20 && string(line[9:15]) == TypeNotify {
					notifies.Add(1)
				}
			}
		}()
	}

	// Every subscriber's handshake ends in a notify; each broadcast adds
	// one more per subscriber.
	deadline := time.Now().Add(60 * time.Second)
	awaitNotifies := func(want int64) {
		for notifies.Load() < want {
			if time.Now().After(deadline) {
				b.Fatalf("%d of %d notifies after 60s", notifies.Load(), want)
			}
			runtime.Gosched()
		}
	}
	awaitNotifies(int64(conns))

	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		if err := srv.RefreshNow(false); err != nil {
			b.Fatal(err)
		}
		awaitNotifies(int64(conns) * int64(i+1))
	}
	b.StopTimer() // the deferred teardown is not a broadcast
	elapsed := b.Elapsed()
	b.ReportMetric(elapsed.Seconds()*1000/float64(b.N), "ms/broadcast")
	b.ReportMetric(float64(conns)*float64(b.N)/elapsed.Seconds(), "notifies/s")
}
