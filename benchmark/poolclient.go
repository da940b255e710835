package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// verdictTimeout is how long a submit may go without a verdict before it
// counts as failed.
const verdictTimeout = 5 * time.Second

// submitKind is what the generator meant a submit to be; it fixes the
// verdict classes the pool may answer with.
type submitKind uint8

const (
	kindFresh   submitKind = iota // a new (job, nonce): accepted, block or low_diff; stale only across a job cut
	kindReplay                    // a (job, nonce) already judged: duplicate, or stale once its job is cut
	kindUnknown                   // a job the pool never issued: stale
)

type pendingSubmit struct {
	kind submitKind
	job  string
	due  time.Time // when the submit was scheduled to be sent
}

type share struct {
	job   string
	nonce uint64
}

// clientStats is what one connection saw since the last take.
type clientStats struct {
	sent       int       // submits written
	fresh      int       // of which fresh
	accepted   int       // fresh submits judged accepted or block
	staleFresh int       // fresh submits judged stale across a job cut
	wrong      int       // verdicts outside the class their submit allows
	unanswered int       // submits with no verdict within verdictTimeout
	lat        []float64 // µs from due time to verdict read, accepted fresh submits
	late       []float64 // ms the generator ran behind schedule, per submit
	bytes      int       // bytes written plus bytes read
	backlog    int       // submits without verdict when the sender stopped
}

// client is one miner connection speaking the pool's NDJSON protocol from
// outside: a reader goroutine for the connection's lifetime, and whichever
// generator (open or closed loop) the workload runs on the caller's
// goroutine.
type client struct {
	nc    net.Conn
	miner string
	nonce uint64 // next unused nonce; the connection index keeps streams disjoint

	job    atomic.Pointer[string] // job most recently announced
	maxJob atomic.Uint64          // highest job sequence announced
	slots  chan struct{}          // closed loop: one token per submit the window still allows
	// lastJudged is the latest accepted share: what pool_flood's junk
	// connections replay.
	lastJudged atomic.Pointer[share]

	mu       sync.Mutex
	pending  map[uint64]pendingSubmit
	judged   []share  // recently accepted shares, replay material
	staleOf  []uint64 // job sequences of fresh submits judged stale
	stats    clientStats
	readErr  error
	readDone chan struct{}
}

func dialClient(addr, miner string, index int) (*client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &client{
		nc:       nc,
		miner:    miner,
		nonce:    uint64(index) << 40,
		slots:    make(chan struct{}, 64),
		pending:  make(map[uint64]pendingSubmit),
		readDone: make(chan struct{}),
	}
	go c.readLoop()
	if _, err := fmt.Fprintf(nc, `{"type":"subscribe","miner":%q,"agent":"benchmark"}`+"\n", miner); err != nil {
		c.close()
		return nil, err
	}
	if err := waitFor("first job", func() bool { return c.job.Load() != nil }); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func (c *client) close() {
	c.nc.Close()
	<-c.readDone
}

// field returns the value following key in a flat JSON line, up to the
// closing quote (string values) or the next delimiter (numbers). The pool
// writes its lines with encoding/json's fixed layout, so a scan suffices
// and keeps the client's own cost off the shared cores.
func field(line []byte, key string) []byte {
	i := bytes.Index(line, []byte(key))
	if i < 0 {
		return nil
	}
	rest := line[i+len(key):]
	end := bytes.IndexAny(rest, `",}`)
	if end < 0 {
		return nil
	}
	return rest[:end]
}

func (c *client) readLoop() {
	defer close(c.readDone)
	br := bufio.NewReaderSize(c.nc, 1<<16)
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			c.mu.Lock()
			if c.readErr == nil { // an error line explains the EOF after it
				c.readErr = err
			}
			c.mu.Unlock()
			return
		}
		now := time.Now()
		switch {
		case bytes.HasPrefix(line, []byte(`{"type":"result"`)):
			nonce, _ := strconv.ParseUint(string(field(line, `"nonce":`)), 10, 64)
			c.verdict(nonce, string(field(line, `"status":"`)), len(line), now)
		case bytes.HasPrefix(line, []byte(`{"type":"notify"`)):
			id := string(field(line, `"id":"`))
			if seq, err := strconv.ParseUint(id, 10, 64); err == nil && seq > c.maxJob.Load() {
				c.maxJob.Store(seq)
			}
			c.job.Store(&id)
		case bytes.HasPrefix(line, []byte(`{"type":"error"`)):
			c.mu.Lock()
			c.readErr = fmt.Errorf("pool error: %s", bytes.TrimSpace(line))
			c.mu.Unlock()
		}
	}
}

// verdict books one result line against the submit it answers.
func (c *client) verdict(nonce uint64, status string, size int, now time.Time) {
	c.mu.Lock()
	p, ok := c.pending[nonce]
	delete(c.pending, nonce)
	c.stats.bytes += size
	switch {
	case !ok:
		c.stats.wrong++ // a verdict nobody asked for
	case p.kind == kindFresh && (status == "accepted" || status == "block"):
		c.stats.accepted++
		c.stats.lat = append(c.stats.lat, float64(now.Sub(p.due).Nanoseconds())/1e3)
		if len(c.judged) < 256 {
			c.judged = append(c.judged, share{p.job, nonce})
		}
		c.lastJudged.Store(&share{p.job, nonce})
	case p.kind == kindFresh && status == "low_diff":
		// "Every digest is a share" holds but for one in 65,536: the
		// compact encoding rounds the all-ones share target down to
		// 0xffff00…, and a digest above it is rightly refused.
	case p.kind == kindFresh && status == "stale":
		// Legitimate only if a job cut landed while the share was in
		// flight; settled once the run's last job is known.
		seq, _ := strconv.ParseUint(p.job, 10, 64)
		c.staleOf = append(c.staleOf, seq)
	case p.kind == kindReplay && (status == "duplicate" || status == "stale"):
	case p.kind == kindUnknown && status == "stale":
	default:
		c.stats.wrong++
	}
	c.mu.Unlock()
	select {
	case c.slots <- struct{}{}:
	default: // open loop: nobody is counting
	}
}

// submit writes one share of the given kind, timed from due.
func (c *client) submit(kind submitKind, due time.Time, buf []byte) ([]byte, error) {
	job := *c.job.Load()
	nonce := c.nonce
	c.mu.Lock()
	switch kind {
	case kindReplay:
		if len(c.judged) == 0 {
			kind = kindFresh // nothing to replay yet
		} else {
			last := len(c.judged) - 1
			job, nonce = c.judged[last].job, c.judged[last].nonce
			c.judged = c.judged[:last]
		}
	case kindUnknown:
		job = "x" + job
	}
	if kind != kindReplay {
		c.nonce++
	}
	c.pending[nonce] = pendingSubmit{kind: kind, job: job, due: due}
	c.stats.sent++
	if kind == kindFresh {
		c.stats.fresh++
	}
	c.mu.Unlock()

	buf = append(buf[:0], `{"type":"submit","job_id":"`...)
	buf = append(buf, job...)
	buf = append(buf, `","nonce":`...)
	buf = strconv.AppendUint(buf, nonce, 10)
	buf = append(buf, "}\n"...)
	_, err := c.nc.Write(buf)
	c.mu.Lock()
	c.stats.bytes += len(buf)
	c.mu.Unlock()
	return buf, err
}

// closedLoop submits fresh shares with at most window in flight, n of
// them, or — with n zero — until the deadline. It returns once every
// verdict is in.
func (c *client) closedLoop(n, window int, deadline time.Time) error {
	for len(c.slots) > 0 {
		<-c.slots
	}
	for i := 0; i < window; i++ {
		c.slots <- struct{}{}
	}
	var buf []byte
	for i := 0; n == 0 || i < n; i++ {
		if n == 0 && !time.Now().Before(deadline) {
			break
		}
		select {
		case <-c.slots: // the reader returns one per verdict
		case <-c.readDone:
			return c.failed()
		}
		var err error
		if buf, err = c.submit(kindFresh, time.Now(), buf); err != nil {
			return err
		}
	}
	return c.drain()
}

// openLoop submits on a fixed schedule regardless of verdicts: every
// interval from start until deadline, each submit's kind drawn by mix.
// Latency is taken from the scheduled instant, so a stall delays nobody's
// clock but its own. It records how late the generator ran and the
// backlog when it stopped, then waits for the stragglers.
func (c *client) openLoop(start time.Time, interval time.Duration, deadline time.Time, mix func() submitKind) error {
	var buf []byte
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(deadline) {
			break
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		late := time.Since(due)
		var err error
		if buf, err = c.submit(mix(), due, buf); err != nil {
			return err
		}
		c.mu.Lock()
		c.stats.late = append(c.stats.late, float64(late.Nanoseconds())/1e6)
		c.mu.Unlock()
	}
	c.mu.Lock()
	c.stats.backlog = len(c.pending)
	c.mu.Unlock()
	return c.drain()
}

func (c *client) failed() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.readErr != nil {
		return fmt.Errorf("connection of %s: %w", c.miner, c.readErr)
	}
	return nil
}

// drain waits until every submit has its verdict; what is still open
// after verdictTimeout is counted unanswered.
func (c *client) drain() error {
	deadline := time.Now().Add(verdictTimeout)
	for {
		c.mu.Lock()
		open := len(c.pending)
		if open > 0 && time.Now().After(deadline) {
			c.stats.unanswered += open
			clear(c.pending)
			open = 0
		}
		c.mu.Unlock()
		if open == 0 {
			break
		}
		if err := c.failed(); err != nil {
			return err
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// take returns the statistics since the last take and settles the stale
// verdicts: a fresh share judged stale is in order only if a later job
// was announced, that is, if a cut really happened. The pool may write
// the verdict ahead of the notify that explains it, so take gives the
// notify a moment to arrive before it calls the verdict wrong.
func (c *client) take() clientStats {
	var newest uint64
	c.mu.Lock()
	for _, seq := range c.staleOf {
		newest = max(newest, seq)
	}
	c.mu.Unlock()
	// Job sequences start at 1, so newest is 0 only without stale verdicts.
	for wait := time.Now().Add(500 * time.Millisecond); newest > 0 && c.maxJob.Load() <= newest && time.Now().Before(wait); {
		time.Sleep(time.Millisecond)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	last := c.maxJob.Load()
	for _, seq := range c.staleOf {
		if seq < last {
			c.stats.staleFresh++
		} else {
			c.stats.wrong++
		}
	}
	c.staleOf = c.staleOf[:0]
	s := c.stats
	c.stats = clientStats{}
	return s
}

// add folds another connection's statistics into s.
func (s *clientStats) add(o clientStats) {
	s.sent += o.sent
	s.fresh += o.fresh
	s.accepted += o.accepted
	s.staleFresh += o.staleFresh
	s.wrong += o.wrong
	s.unanswered += o.unanswered
	s.lat = append(s.lat, o.lat...)
	s.late = append(s.late, o.late...)
	s.bytes += o.bytes
	s.backlog += o.backlog
}

// book adds the verdict accounting of s to the outcome.
func (s *clientStats) book(o *outcome) {
	o.attempted += s.sent
	o.fail(s.wrong, "verdict outside the class its submit allows")
	o.fail(s.unanswered, "submit without a verdict in %v", verdictTimeout)
}
