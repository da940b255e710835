package pool

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hashcore/internal/blockchain"
	"hashcore/internal/pow"
	"hashcore/internal/telemetry"
	"hashcore/internal/wire"
)

// Config parameterizes a pool server. Zero values select the documented
// defaults.
type Config struct {
	// Addr is the TCP listen address for the miner protocol, e.g.
	// "127.0.0.1:3333". Use port 0 to let the OS pick (tests).
	Addr string
	// PoolName tags the pool in handshakes, coinbases and stats.
	// Default "hcpool".
	PoolName string
	// ShareBits is the compact pool share target — the easier threshold a
	// submission must meet to count as work. Required.
	ShareBits uint32
	// RangeSize is the nonce window assigned to each subscriber per job.
	// Default DefaultRangeSize.
	RangeSize uint64
	// VerifyWorkers sets the verification-fleet width: this many
	// workers, each with a private hashing session, drain one queue.
	// Default GOMAXPROCS.
	VerifyWorkers int
	// QueueDepth bounds the shares waiting for a verification worker; a
	// full queue blocks the submitting connection's reader (TCP
	// backpressure). Default 256.
	QueueDepth int
	// RefreshInterval re-templates the current job (rolling its
	// timestamp and handing out fresh nonce ranges) at this period.
	// Default 10s; negative disables.
	RefreshInterval time.Duration
	// WriteTimeout bounds one protocol write to a client, so a stalled
	// connection cannot block its writer forever. Default 5s.
	WriteTimeout time.Duration
	// NotifyQueue bounds each connection's outbound message queue
	// (notifies and share verdicts). A peer that lets it overflow is
	// dropped — broadcast fan-out never waits for a stalled conn.
	// Default 64.
	NotifyQueue int
	// SubmitRate is the per-miner sustained submission rate (shares/sec)
	// admitted by the pre-check tier; excess submissions are rejected
	// at ~ns cost before touching a hashing session. 0 disables.
	SubmitRate float64
	// SubmitBurst is the rate limiter's bucket depth. 0 derives a
	// default from SubmitRate.
	SubmitBurst int
	// Metrics receives the pool_* instruments. When nil the server
	// creates a private registry, so StatsHandler always reads from the
	// same instrument set regardless of whether telemetry is exported.
	Metrics *telemetry.Registry
	// Journal, when non-nil, receives pool events (rate-limited miners).
	Journal *telemetry.Journal
	// Logf receives server events; nil means log.Printf.
	Logf func(format string, args ...any)
}

func (c *Config) fillDefaults() {
	if c.PoolName == "" {
		c.PoolName = "hcpool"
	}
	if c.VerifyWorkers < 1 {
		c.VerifyWorkers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 256
	}
	if c.RefreshInterval == 0 {
		c.RefreshInterval = 10 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 5 * time.Second
	}
	if c.NotifyQueue < 1 {
		c.NotifyQueue = 64
	}
	// The subscribe handshake enqueues three messages before the peer
	// can drain any; a queue smaller than that would condemn fresh
	// connections whenever their writer goroutine is slow to schedule.
	if c.NotifyQueue < 4 {
		c.NotifyQueue = 4
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
}

// Server is a mining-pool server: it owns the job manager, the
// admission pre-check tier, the verification fleet, the miner
// ledger and the miner-protocol listener. Create with NewServer, start with
// Start, stop with Shutdown.
type Server struct {
	cfg      Config
	hasher   pow.Hasher
	jm       *JobManager
	src      TemplateSource
	seen     *SeenSet
	acct     *Accounting
	pipe     *Pipeline
	precheck *Precheck
	reg      *telemetry.Registry
	met      *poolMetrics

	ln net.Listener

	mu       sync.Mutex
	conns    map[*serverConn]struct{}
	started  bool
	shutdown bool

	connSeq atomic.Uint64

	quit chan struct{}
	wg   sync.WaitGroup
}

// NewServer assembles a server verifying shares with hasher (workers get
// private sessions when it implements pow.SessionHasher) over templates
// from src. The first job is built immediately, so a nil-template source
// fails here rather than at Start.
func NewServer(cfg Config, hasher pow.Hasher, src TemplateSource) (*Server, error) {
	cfg.fillDefaults()
	jm, err := NewJobManager(src, cfg.ShareBits, cfg.RangeSize, jobRetention)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
		hasher: hasher,
		jm:     jm,
		src:    src,
		seen:   NewSeenSet(seenCapacity),
		acct:   NewAccounting(),
		conns:  make(map[*serverConn]struct{}),
		quit:   make(chan struct{}),
	}
	validator := NewShareValidator(jm, s.seen, s.acct, s.onBlock)
	s.pipe = NewPipeline(validator, hasher, cfg.VerifyWorkers, cfg.QueueDepth)
	s.precheck = NewPrecheck(jm, s.seen, s.acct, cfg.SubmitRate, cfg.SubmitBurst)
	s.precheck.journal = cfg.Journal
	s.reg = cfg.Metrics
	if s.reg == nil {
		s.reg = telemetry.NewRegistry()
	}
	s.met = registerPoolMetrics(s.reg, s)
	// Safe before the first Submit: workers only touch met while
	// processing a task, the admission tier only from connection
	// goroutines, and no connection exists until Start.
	s.pipe.met = s.met
	s.precheck.met = s.met
	if _, err := jm.Refresh(true); err != nil {
		s.pipe.Close()
		return nil, fmt.Errorf("pool: building initial job: %w", err)
	}
	return s, nil
}

// Start opens the miner-protocol listener and begins serving. It returns
// once the listener is bound (use Addr for the resolved address).
func (s *Server) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return errors.New("pool: server already started")
	}
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.started = true

	s.wg.Add(1)
	go s.acceptLoop()
	if s.cfg.RefreshInterval > 0 {
		s.wg.Add(1)
		go s.refreshLoop()
	}
	events, cancel := s.src.SubscribeTips(16)
	s.wg.Add(1)
	go s.tipLoop(events, cancel)
	s.cfg.Logf("pool %q serving %s on %s (share bits %#x, %d verify workers)",
		s.cfg.PoolName, s.hasher.Name(), ln.Addr(), s.cfg.ShareBits, s.cfg.VerifyWorkers)
	return nil
}

// Addr returns the miner-protocol listen address ("" before Start).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Accounting exposes the share ledger (for tests and embedding).
func (s *Server) Accounting() *Accounting { return s.acct }

// Jobs exposes the job manager.
func (s *Server) Jobs() *JobManager { return s.jm }

// Blocks returns how many blocks the pool has solved and submitted.
func (s *Server) Blocks() uint64 { return s.met.blocks.Value() }

// Metrics returns the registry holding the pool_* instruments — the one
// from Config.Metrics, or the private registry the server created.
func (s *Server) Metrics() *telemetry.Registry { return s.reg }

// connCount reports the open miner connections (scrape-time gauge).
func (s *Server) connCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// RefreshNow cuts a fresh job and broadcasts it to every subscriber —
// the explicit form of what refreshLoop and tipLoop do, for embedders
// and load harnesses that drive broadcasts deterministically.
func (s *Server) RefreshNow(clean bool) error {
	job, err := s.jm.Refresh(clean)
	if err != nil {
		return err
	}
	s.broadcastJob(job)
	return nil
}

// Shutdown stops accepting, closes every connection, drains the
// verification queue and waits for all server goroutines, or returns
// ctx.Err() if the context expires first.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.shutdown {
		s.mu.Unlock()
		return nil
	}
	s.shutdown = true
	started := s.started
	if !started {
		// Never started (or Start failed): no listeners or connection
		// goroutines exist, but the verification workers do — stop them
		// so a construct-and-abandon caller leaks nothing.
		s.mu.Unlock()
		s.pipe.Close()
		return nil
	}
	close(s.quit)
	s.ln.Close()
	for c := range s.conns {
		c.close()
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		s.pipe.Close()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// startConn wraps nc in the connection machinery — framing, outbound
// writer queue, read loop — and registers it. Returns false when the
// server is shutting down (nc is closed).
func (s *Server) startConn(nc net.Conn) bool {
	c := &serverConn{
		s:    s,
		conn: wire.NewConn(nc, connConfig(s.cfg.WriteTimeout)),
		id:   s.connSeq.Add(1),
		out:  make(chan outMsg, s.cfg.NotifyQueue),
	}
	c.resultFn = c.sendResult
	s.mu.Lock()
	if s.shutdown || !s.started {
		s.mu.Unlock()
		nc.Close()
		return false
	}
	s.conns[c] = struct{}{}
	s.mu.Unlock()
	s.wg.Add(2)
	go c.serve()
	go c.writeLoop()
	return true
}

// ServeConn serves the miner protocol over a caller-supplied connection
// — an in-memory pipe, a simnet endpoint, a test fixture — on a started
// server, exactly as if it had arrived through the TCP listener. The
// connection is owned by the server from here on (closed on Shutdown).
func (s *Server) ServeConn(nc net.Conn) error {
	if !s.startConn(nc) {
		return errors.New("pool: server not serving")
	}
	return nil
}

// acceptLoop admits miner connections until the listener closes.
// Transient accept errors (fd exhaustion under a connection flood) are
// retried with backoff rather than silently ending admission for the
// rest of the process lifetime.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	var backoff time.Duration
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.quit:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			if backoff == 0 {
				backoff = 5 * time.Millisecond
			} else if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
			s.cfg.Logf("pool: accept: %v (retrying in %v)", err, backoff)
			select {
			case <-s.quit:
				return
			case <-time.After(backoff):
			}
			continue
		}
		backoff = 0
		if !s.startConn(conn) {
			return
		}
	}
}

// refreshLoop periodically re-templates the current job so timestamps
// roll and subscribers get fresh nonce ranges even without new blocks.
func (s *Server) refreshLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.RefreshInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-ticker.C:
			if err := s.RefreshNow(false); err != nil {
				s.cfg.Logf("pool: job refresh: %v", err)
			}
		}
	}
}

// tipLoop reacts to tip-change events from the consensus node: every
// move of the best block — a block this pool solved, a competing
// miner's block, a reorg — invalidates all outstanding work, so the
// loop cuts a clean job on the new tip and fans it out within one event
// dispatch, with no poll interval in the path.
func (s *Server) tipLoop(events <-chan blockchain.TipEvent, cancel func()) {
	defer s.wg.Done()
	defer cancel()
	for {
		select {
		case <-s.quit:
			return
		case ev, ok := <-events:
			if !ok {
				return
			}
			if ev.Reorg {
				s.cfg.Logf("pool: chain reorg to %x… at height %d — invalidating all jobs", ev.NewTip[:8], ev.Height)
			}
			if err := s.RefreshNow(true); err != nil {
				s.cfg.Logf("pool: job refresh after tip change: %v", err)
			}
		}
	}
}

// onBlock runs on a verification worker when a share solves a block and
// submits it upstream. The accepted block moves the source's tip, and
// tipLoop cuts the clean job on the new tip from that event.
func (s *Server) onBlock(job *Job, digest [32]byte, nonce uint64) {
	header := job.Header
	header.Nonce = nonce
	if err := s.src.SubmitBlock(header); err != nil {
		s.cfg.Logf("pool: block at height %d rejected upstream: %v", job.Height, err)
		return
	}
	s.met.blocks.Inc()
	s.cfg.Logf("pool: block solved at height %d (job %s nonce %d digest %x…)",
		job.Height, job.ID, nonce, digest[:8])
}

// fanoutTrack follows one broadcast across the per-conn writers: the
// last notify written (or condemned) observes the fan-out histogram.
type fanoutTrack struct {
	start   time.Time
	pending atomic.Int64
	met     *poolMetrics
}

func (t *fanoutTrack) done() {
	if t.pending.Add(-1) == 0 && t.met != nil {
		t.met.fanout.ObserveSince(t.start)
	}
}

// jobRetention is how many recent jobs stay submittable; seenCapacity
// bounds the duplicate-share set.
const (
	jobRetention = 4
	seenCapacity = 1 << 16
)

// broadcastJob notifies every subscribed connection, assigning each its
// own nonce window. The job's notify payload is serialized exactly once
// (notifyFrame); each connection's writer patches only its nonce window
// into a scratch buffer. Dispatch enqueues onto the per-conn writer
// queues on the calling goroutine without blocking — a stalled peer can
// never delay the others; one that overflows its queue is dropped.
func (s *Server) broadcastJob(job *Job) {
	s.mu.Lock()
	conns := make([]*serverConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.met.broadcasts.Inc()
	start := time.Now()
	if len(conns) == 0 {
		s.met.fanout.ObserveSince(start)
		return
	}
	job.notifyFrame() // marshal once, before any writer renders it
	track := &fanoutTrack{start: start, met: s.met}
	track.pending.Store(int64(len(conns)))
	s.dispatchNotify(conns, job, track)
}

// dispatchNotify enqueues one broadcast onto the per-conn writers.
func (s *Server) dispatchNotify(conns []*serverConn, job *Job, track *fanoutTrack) {
	for _, c := range conns {
		if !c.subscribed.Load() {
			track.done()
			continue
		}
		c.enqueue(outMsg{job: job, track: track})
	}
}

// statsReply is the /stats JSON document.
type statsReply struct {
	Pool        string          `json:"pool"`
	Hasher      string          `json:"hasher"`
	JobID       string          `json:"job_id"`
	Height      int             `json:"height"`
	ShareBits   uint32          `json:"share_bits"`
	BlockBits   uint32          `json:"block_bits"`
	Blocks      uint64          `json:"blocks_solved"`
	Connections int             `json:"connections"`
	QueueDepth  int             `json:"queue_depth"`
	SeenShares  int             `json:"seen_shares"`
	Totals      MinerStats      `json:"totals"`
	Miners      []MinerSnapshot `json:"miners"`
}

// StatsHandler serves the JSON stats document; hcpoold mounts it at
// /stats on its debug plane, beside /metrics. Every numeric field with a
// pool_* instrument is read back from the registry, so /stats and
// /metrics can never disagree; only the per-miner ledger and job
// description come from their owning structures.
func (s *Server) StatsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		regInt := func(name string) int {
			v, _ := s.reg.Value(name)
			return int(v)
		}
		reply := statsReply{
			Pool:        s.cfg.PoolName,
			Hasher:      s.hasher.Name(),
			Blocks:      s.Blocks(),
			Connections: regInt("pool_connections"),
			QueueDepth:  regInt("pool_verify_queue_depth"),
			SeenShares:  regInt("pool_seen_shares"),
			Totals:      s.acct.Totals(),
			Miners:      s.acct.Snapshot(),
		}
		if job := s.jm.Current(); job != nil {
			reply.JobID = job.ID
			reply.Height = job.Height
			reply.ShareBits = job.ShareBits
			reply.BlockBits = job.BlockBits
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(reply)
	})
}

// outMsg is one queued outbound message: either an owned envelope or a
// notify rendered from the job's marshal-once frame at write time.
type outMsg struct {
	env   *Envelope
	job   *Job
	track *fanoutTrack
}

// serverConn is one miner connection, riding the shared wire framing.
// Reads run on serve's goroutine; all outbound traffic (job notifies,
// share verdicts) funnels through the out queue into writeLoop, so a
// peer that stops draining stalls only its own writer — never a
// broadcast, never a verification worker.
type serverConn struct {
	s    *Server
	conn *wire.Conn
	id   uint64

	out       chan outMsg
	outMu     sync.Mutex
	outClosed bool

	subscribed atomic.Bool
	subMu      sync.Mutex
	miner      string

	// resultFn is the verdict callback handed to the verification
	// fleet — bound once so the per-share submit path allocates no
	// closure.
	resultFn func(ShareResult)
}

func (c *serverConn) close() {
	_ = c.conn.Close()
}

// teardown closes the out queue so writeLoop drains and exits. Safe to
// race enqueue and itself.
func (c *serverConn) teardown() {
	c.outMu.Lock()
	if !c.outClosed {
		c.outClosed = true
		close(c.out)
	}
	c.outMu.Unlock()
}

// enqueue hands a message to the connection's writer without ever
// blocking. A full queue condemns the connection: the peer is not
// draining, and failing fast beats wedging broadcast dispatch behind
// a dead socket.
func (c *serverConn) enqueue(m outMsg) {
	c.outMu.Lock()
	if c.outClosed {
		c.outMu.Unlock()
		if m.track != nil {
			m.track.done()
		}
		return
	}
	select {
	case c.out <- m:
		c.outMu.Unlock()
		return
	default:
	}
	// Overflow: condemn the connection. Close the queue first so racing
	// enqueuers bail, then the socket so the writer's in-flight write
	// fails fast.
	c.outClosed = true
	close(c.out)
	c.outMu.Unlock()
	if m.track != nil {
		m.track.done()
	}
	c.s.met.dropped.Inc()
	c.close()
}

// writeLoop drains the out queue onto the socket. Notifies are rendered
// from the job's marshal-once frame into a reusable scratch buffer —
// the only per-conn work in a broadcast is patching the nonce window
// and one locked write.
func (c *serverConn) writeLoop() {
	defer c.s.wg.Done()
	var scratch []byte
	for m := range c.out {
		var err error
		if m.job != nil {
			start, end := m.job.AssignRange(c.s.jm.rangeSize)
			scratch = m.job.notifyFrame().render(scratch, start, end)
			err = c.conn.WriteLine(scratch)
		} else {
			err = c.conn.WriteJSON(m.env)
		}
		if m.track != nil {
			m.track.done()
		}
		if err != nil {
			// A peer that cannot take a write within WriteTimeout is
			// better dropped than allowed to stall its writer; keep
			// draining so queued tracks resolve (writes now fail fast).
			c.close()
		}
	}
}

// send queues one envelope for the connection's writer.
func (c *serverConn) send(env *Envelope) {
	c.enqueue(outMsg{env: env})
}

// sendNow writes one envelope synchronously — used for terminal
// protocol errors where the connection is dropped right after and the
// queue would never flush.
func (c *serverConn) sendNow(env *Envelope) {
	if err := c.conn.WriteJSON(env); err != nil {
		c.close()
	}
}

// sendResult queues a share verdict.
func (c *serverConn) sendResult(res ShareResult) {
	c.enqueue(outMsg{env: &Envelope{
		Type:   TypeResult,
		JobID:  res.JobID,
		Nonce:  res.Nonce,
		Status: res.Status,
		Reason: res.Reason,
	}})
}

// serve runs the connection's read loop until EOF, protocol error or
// shutdown.
func (c *serverConn) serve() {
	defer c.s.wg.Done()
	defer func() {
		c.close()
		c.teardown()
		c.s.mu.Lock()
		delete(c.s.conns, c)
		c.s.mu.Unlock()
	}()

	for {
		line, err := c.conn.ReadLine()
		if err != nil {
			// EOF, read error or oversized line: the connection is done.
			return
		}
		// Admission fast path: submits dominate miner traffic by orders
		// of magnitude, and parseSubmit decodes the line every client
		// writes without allocating.
		if jobID, nonce, ok := parseSubmit(line); ok {
			if !c.handleShare(jobID, nonce) {
				return
			}
			continue
		}
		env, err := parseMsg(line)
		if err != nil {
			if c.s.met != nil {
				c.s.met.precheck[RejectMalformed].Inc()
			}
			c.sendNow(&Envelope{Type: TypeError, Error: err.Error()})
			return
		}
		switch env.Type {
		case TypeSubscribe:
			c.handleSubscribe(&env)
		case TypeSubmit:
			// Any other spelling of a submit takes the same
			// admission path.
			if !c.handleShare([]byte(env.JobID), env.Nonce) {
				return
			}
		default:
			c.send(&Envelope{Type: TypeError, Error: "unknown message type " + strconv.Quote(env.Type)})
		}
	}
}

func (c *serverConn) handleSubscribe(env *Envelope) {
	name := env.Miner
	if name == "" {
		name = fmt.Sprintf("anon-%d", c.id)
	}
	c.subMu.Lock()
	c.miner = name
	first := !c.subscribed.Load()
	c.subscribed.Store(true)
	c.subMu.Unlock()

	if first {
		c.s.cfg.Logf("pool: miner %q subscribed from %s (agent %q)", name, c.conn.RemoteAddr(), env.Agent)
	}
	c.send(&Envelope{
		Type:    TypeSubscribed,
		Session: strconv.FormatUint(c.id, 10),
		Pool:    c.s.cfg.PoolName,
		Hasher:  c.s.hasher.Name(),
	})
	c.send(&Envelope{Type: TypeSetTarget, Bits: c.s.jm.ShareBits()})
	if job := c.s.jm.Current(); job != nil {
		c.enqueue(outMsg{job: job})
	}
}

// handleShare pushes one submitted share through the admission tier
// and, if admitted, onto the verification queue. The reply is
// queued on the connection's writer either way. Returns false when the
// connection should be dropped (submit before subscribe, or shutdown).
func (c *serverConn) handleShare(jobID []byte, nonce uint64) bool {
	if !c.subscribed.Load() {
		c.sendNow(&Envelope{Type: TypeError, Error: "submit before subscribe"})
		return false
	}
	c.subMu.Lock()
	miner := c.miner
	c.subMu.Unlock()
	job, rej, admitted := c.s.precheck.Admit(miner, jobID, nonce)
	if !admitted {
		c.send(&Envelope{Type: TypeResult, JobID: rej.JobID, Nonce: rej.Nonce,
			Status: rej.Status, Reason: rej.Reason})
		return true
	}
	// SubmitAdmitted blocks when the verification queue is full; since
	// this is the connection's read goroutine, the peer experiences TCP
	// backpressure.
	if err := c.s.pipe.SubmitAdmitted(context.Background(), miner, job, nonce, c.resultFn); err != nil {
		c.sendNow(&Envelope{Type: TypeError, Error: err.Error()})
		return false
	}
	return true
}
