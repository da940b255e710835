package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// e2eRate is pool_e2e's open-loop load, shares per second over all
	// connections: about a fifth of what two cores verify, so that latency
	// is read off an unsaturated pool.
	e2eRate = 500
	// e2eWindow is the closed loop's submits in flight per connection.
	e2eWindow = 8
	// A repetition of pool_e2e is an open-loop window and a closed-loop
	// window; a repetition of the flood is one window.
	e2eOpenLen   = 250 * time.Millisecond
	e2eClosedLen = 500 * time.Millisecond
	floodRepLen  = 500 * time.Millisecond
	// floodLegitRate is the honest miner's rate during pool_flood; the
	// pool's per-miner limit sits ten times above it.
	floodLegitRate  = 100
	floodSubmitRate = 1000
	// floodWindow is a junk connection's submits in flight, topped up half
	// a window at a time: batches that long keep the pool's reader and
	// writer busy side by side, so that the flood is bound by what a reject
	// costs them and not by who wakes whom. The pool drops a connection
	// whose out queue (1,024 messages here) overflows, so a flooder that
	// wants to stay connected must stay below that and read its verdicts.
	floodWindow = 512
	// maxBacklog makes pool_e2e's open-loop windows invalid (see
	// lateness.report).
	maxBacklog = 50
)

// poolInst runs both pool workloads on the same stack; junk connections
// select the flood.
type poolInst struct {
	e    *env
	st   *stack
	junk []*junkConn // pool_flood's flooding connections; nil on pool_e2e
}

func poolE2ESetup(e *env, traced bool) (instance, error) {
	st, err := newStack(e, "pool_e2e", e.threads, 0, traced)
	if err != nil {
		return nil, err
	}
	return &poolInst{e: e, st: st}, nil
}

func poolFloodSetup(e *env, traced bool) (instance, error) {
	st, err := newStack(e, "pool_flood", 1, floodSubmitRate, traced)
	if err != nil {
		return nil, err
	}
	pi := &poolInst{e: e, st: st}
	// One honest connection; every other thread floods.
	for i := 0; i < max(e.threads-1, 1); i++ {
		j, err := dialJunk(st.srv.Addr(), fmt.Sprintf("flood-%d", i), e.seed+uint64(i))
		if err != nil {
			pi.close()
			return nil, err
		}
		pi.junk = append(pi.junk, j)
	}
	return pi, nil
}

func (pi *poolInst) close() error {
	for _, j := range pi.junk {
		j.nc.Close()
	}
	return pi.st.close()
}

func (pi *poolInst) measure(d time.Duration) (*outcome, error) {
	o := &outcome{}
	var err error
	if pi.junk != nil {
		err = pi.measureFlood(o, d)
	} else {
		err = pi.measureE2E(o, d)
	}
	if err != nil {
		return nil, err
	}
	return o, pi.check(o)
}

// each runs fn on every client connection concurrently.
func each(clients []*client, fn func(i int, c *client) error) error {
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			errs[i] = fn(i, c)
		}(i, c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// lateness collects the open-loop generator's self-report repetition by
// repetition.
type lateness struct {
	p95Ms   []float64 // per repetition: p95 of how late submits left, ms
	backlog []float64 // per repetition: submits still open when the generator stopped
	meanUs  []float64
	all     []float64 // every submit's lateness, ms
}

func (l *lateness) add(s *clientStats) {
	if p95, err := percentile(s.late, 95); err == nil {
		l.p95Ms = append(l.p95Ms, p95)
	}
	l.backlog = append(l.backlog, float64(s.backlog))
	l.meanUs = append(l.meanUs, mean(s.late)*1e3)
	l.all = append(l.all, s.late...)
}

// report books the self-report and, with enforce, the run-invalid rule:
// a generator that leaves a backlog in the typical repetition is offering
// more than the pool takes, and what it then measures is the queue, not the
// pool. Lateness is reported only: it is the host stalling the generator,
// Go timers alone wake up to a millisecond late, and the repetitions it
// hits are not among the quiet ones the latencies are read from.
// pool_flood only reports: there the flood is meant to crowd the honest
// miner.
func (l *lateness) report(o *outcome, enforce bool) {
	// Repetitions too short for a p95 of their own share one.
	late, _ := percentile(l.all, 95)
	if len(l.p95Ms) > 0 {
		late = median(l.p95Ms)
	}
	backlog := median(l.backlog)
	o.fact("gen.late_p95_ms", late)
	o.fact("gen.late_mean_us", median(l.meanUs))
	o.fact("gen.backlog_end", backlog)
	if enforce && backlog > maxBacklog {
		o.attempted++
		o.fail(1, "open-loop run invalid: %.0f submits still open at the end of the typical repetition (limit %d)", backlog, maxBacklog)
	}
}

// measureE2E alternates two kinds of window for the whole run: an open
// loop at a fixed rate, where submit→verdict and block→peer latency are
// read, and a closed loop twice as long that finds capacity. Alternating
// lets either kind see every quiet stretch of the host. An operation is one
// fresh share accepted.
func (pi *poolInst) measureE2E(o *outcome, d time.Duration) error {
	clients := pi.st.clients
	reps := repsIn(d, e2eOpenLen+e2eClosedLen)
	openLen := d / time.Duration(reps) * e2eOpenLen / (e2eOpenLen + e2eClosedLen)
	closedLen := d/time.Duration(reps) - openLen
	interval := time.Duration(len(clients)) * time.Second / e2eRate
	relayed := func() error {
		return waitFor("relay of the last block", func() bool { return pi.st.peer.TipID() == pi.st.node.TipID() })
	}
	var open, closed clientStats
	var gen lateness
	var stages stageSnap
	var relay []float64
	for rep := 0; rep < reps; rep++ {
		// Open loop: 90 % fresh, 5 % replayed, 5 % for a job that never was.
		before := pi.snap()
		pi.st.relay.reset()
		start := time.Now().Add(time.Millisecond)
		err := each(clients, func(i int, c *client) error {
			r := rand.New(rand.NewPCG(pi.e.seed, uint64(rep)<<8|uint64(i)))
			mix := func() submitKind {
				switch x := r.IntN(100); {
				case x < 90:
					return kindFresh
				case x < 95:
					return kindReplay
				default:
					return kindUnknown
				}
			}
			// Stagger the connections across one interval.
			offset := interval * time.Duration(i) / time.Duration(len(clients))
			return c.openLoop(start.Add(offset), interval, start.Add(openLen), mix)
		})
		if err != nil {
			return err
		}
		// Every connection has a verification shard of its own (see
		// minerNames), so a repetition is one connection's: a neighbour on
		// the host slows one vCPU, and with it one shard, at a time.
		var s clientStats
		for _, c := range clients {
			cs := c.take()
			o.lat = append(o.lat, cs.lat)
			s.add(cs)
		}
		gen.add(&s)
		s.lat, s.late = nil, nil
		open.add(s)
		stages.add(pi.snap().since(before))
		if err := relayed(); err != nil {
			return err
		}
		ms, unseen := pi.st.relay.take()
		relay = append(relay, ms...)
		o.attempted += len(ms) + len(unseen)
		for _, id := range unseen {
			if !pi.st.peer.HasBlock(id) {
				o.fail(1, "block %x… solved by the pool never reached the peer", id[:8])
			}
		}

		// Closed loop: every connection keeps e2eWindow fresh shares in flight.
		deadline := time.Now().Add(closedLen)
		t0 := time.Now()
		if err := each(clients, func(_ int, c *client) error { return c.closedLoop(0, e2eWindow, deadline) }); err != nil {
			return err
		}
		wall := time.Since(t0).Seconds()
		for _, c := range clients {
			cs := c.take()
			o.ops = append(o.ops, float64(len(clients)*cs.accepted)/wall)
			closed.add(cs)
		}
		if err := relayed(); err != nil {
			return err
		}
	}
	stages.facts(o)
	open.book(o)
	closed.book(o)
	gen.report(o, true)
	for _, q := range []struct {
		name string
		p    float64
	}{{"p2p.block_to_peer_p50_ms", 50}, {"p2p.block_to_peer_p90_ms", 90}} {
		if v, err := percentile(relay, q.p); err == nil {
			o.fact(q.name, v)
		}
	}
	o.fact("wire.bytes_per_share", float64(open.bytes)/float64(open.sent))
	o.fact("pool.stale_ratio", float64(open.staleFresh+closed.staleFresh)/float64(open.fresh+closed.fresh))
	return nil
}

// measureFlood runs the ingest layer the other way round: all but one
// connection pipeline junk far over the per-miner rate, while one honest
// miner submits fresh shares on a schedule. An operation is one junk
// submit rejected; the latencies are the honest miner's.
func (pi *poolInst) measureFlood(o *outcome, d time.Duration) error {
	legit, junk := pi.st.clients[0], pi.junk
	reps := repsIn(d, floodRepLen)
	slice := d / time.Duration(reps)
	var total clientStats
	var gen lateness
	before := pi.snap()

	for rep := 0; rep < reps; rep++ {
		start := time.Now().Add(time.Millisecond)
		deadline := start.Add(slice)
		var wg sync.WaitGroup
		errs := make([]error, len(junk))
		for i, j := range junk {
			wg.Add(1)
			go func(i int, j *junkConn) {
				defer wg.Done()
				errs[i] = j.flood(deadline, &legit.lastJudged)
			}(i, j)
		}
		t0 := time.Now()
		err := legit.openLoop(start, time.Second/floodLegitRate, deadline, func() submitKind { return kindFresh })
		wg.Wait()
		wall := time.Since(t0).Seconds()
		if err = errors.Join(append(errs, err)...); err != nil {
			return err
		}
		var rejected int
		for _, j := range junk {
			js := j.take()
			rejected += js.rejected
			o.attempted += js.sent
			o.fail(js.hashed, "junk submit reached a hashing session")
			o.fail(js.sent-js.rejected-js.hashed, "junk submit without a verdict")
			o.fact("pool.junk_hashes", o.facts["pool.junk_hashes"]+float64(js.hashed))
		}
		s := legit.take()
		o.ops = append(o.ops, float64(rejected)/wall)
		o.lat = append(o.lat, s.lat)
		gen.add(&s)
		s.lat, s.late = nil, nil
		total.add(s)
	}
	pi.snap().since(before).facts(o)
	total.book(o)
	gen.report(o, false)
	o.fact("wire.bytes_per_share", float64(total.bytes)/float64(total.sent))
	o.fact("pool.stale_ratio", float64(total.staleFresh)/float64(total.fresh))
	return nil
}

// check verifies the state the traffic left behind: both nodes agree on
// the tip, and the pool node's block log replays to it.
func (pi *poolInst) check(o *outcome) error {
	st := pi.st
	if err := waitFor("relay of the last block", func() bool { return st.peer.TipID() == st.node.TipID() }); err != nil {
		o.attempted++
		o.fail(1, "peer never reached the pool node's tip: %v", err)
		return nil
	}
	// The log is read while the node still holds it open; every append
	// was fsynced before AddBlock returned.
	ok, _, err := reopened(st.dir+"/blocks.log", chainParams(blockZeroBits), st.hasher, st.node.TipID())
	if err != nil {
		return err
	}
	o.attempted++
	if !ok {
		o.fail(1, "reopened block log replays to a different tip")
	}
	return nil
}

// junkConn is a flooding connection: one goroutine that tops its window
// up with junk, reads verdicts until half of it is answered, and repeats.
type junkConn struct {
	nc    net.Conn
	br    *bufio.Reader
	r     *rand.Rand
	job   string // job most recently announced, the base of invented ids
	nonce uint64
	stats junkStats
}

type junkStats struct {
	sent     int
	rejected int // verdicts duplicate, stale or invalid
	hashed   int // verdicts only a hash evaluation can produce
}

func dialJunk(addr, miner string, seed uint64) (*junkConn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	j := &junkConn{nc: nc, br: bufio.NewReaderSize(nc, 1<<16), r: rand.New(rand.NewPCG(seed, 0xf100d))}
	if _, err := fmt.Fprintf(nc, `{"type":"subscribe","miner":%q,"agent":"flood"}`+"\n", miner); err != nil {
		nc.Close()
		return nil, err
	}
	// subscribed, set_target and the first notify.
	for j.job == "" {
		if err := j.readOne(); err != nil {
			nc.Close()
			return nil, err
		}
	}
	return j, nil
}

func (j *junkConn) take() junkStats {
	s := j.stats
	j.stats = junkStats{}
	return s
}

// readOne reads one line and books it.
func (j *junkConn) readOne() error {
	j.nc.SetReadDeadline(time.Now().Add(verdictTimeout))
	line, err := j.br.ReadSlice('\n')
	if err != nil {
		return err
	}
	switch {
	case bytes.HasPrefix(line, []byte(`{"type":"result"`)):
		switch string(field(line, `"status":"`)) {
		case "duplicate", "stale", "invalid":
			j.stats.rejected++
		default:
			j.stats.hashed++
		}
	case bytes.HasPrefix(line, []byte(`{"type":"notify"`)):
		j.job = string(field(line, `"id":"`))
	case bytes.HasPrefix(line, []byte(`{"type":"error"`)):
		return fmt.Errorf("pool error: %s", bytes.TrimSpace(line))
	}
	return nil
}

// flood pipelines junk until the deadline: alternately a replay of the
// honest miner's latest share and a submit for a job that never existed,
// one line in fifty spelled so that the pool's fast submit scanner
// declines it and encoding/json has to decode it.
func (j *junkConn) flood(deadline time.Time, last *atomic.Pointer[share]) error {
	var batch []byte
	inflight := func() int { return j.stats.sent - j.stats.rejected - j.stats.hashed }
	for time.Now().Before(deadline) {
		batch = batch[:0]
		for n := inflight(); n < floodWindow; n++ {
			job, nonce := "x"+j.job, j.nonce
			if ls := last.Load(); ls != nil && j.stats.sent%2 == 0 {
				job, nonce = ls.job, ls.nonce
			}
			j.nonce++
			batch = append(batch, `{"type":"submit",`...)
			if j.r.IntN(50) == 0 {
				batch = append(batch, `"x":[],`...)
			}
			batch = append(batch, `"job_id":"`...)
			batch = append(batch, job...)
			batch = append(batch, `","nonce":`...)
			batch = strconv.AppendUint(batch, nonce, 10)
			batch = append(batch, "}\n"...)
			j.stats.sent++
		}
		if _, err := j.nc.Write(batch); err != nil {
			return err
		}
		for inflight() > floodWindow/2 {
			if err := j.readOne(); err != nil {
				return err
			}
		}
	}
	for inflight() > 0 {
		if err := j.readOne(); err != nil {
			break // the missing verdicts are counted by the caller
		}
	}
	return nil
}
