package pool

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hashcore"
	"hashcore/internal/pow"
	"hashcore/internal/wire"
)

// RangeMiner searches a nonce window for a digest meeting a target —
// the shape hashcore.Hasher.MineRange exports. The pool client drives
// one of these over each assigned window.
type RangeMiner interface {
	MineRange(ctx context.Context, prefix []byte, target [32]byte, workers int, start, maxAttempts uint64) (hashcore.MineResult, error)
}

// dialTimeout bounds one TCP dial to the pool; reconnectMax caps the
// re-dial backoff.
const (
	dialTimeout  = 10 * time.Second
	reconnectMax = 30 * time.Second
)

// ClientConfig parameterizes a pool client.
type ClientConfig struct {
	// Addr is the pool server's miner-protocol address.
	Addr string
	// MinerName identifies this miner in pool accounting. Default
	// assigned by the server ("anon-<n>").
	MinerName string
	// Agent is a free-form client version string.
	Agent string
	// Workers is the mining parallelism handed to the RangeMiner.
	// Default 1.
	Workers int
	// Reconnect makes Run survive transport failures: instead of
	// returning the error it re-dials with exponential backoff and
	// resubscribes, so a miner outlives a pool daemon restart. Off by
	// default (Run reports the first transport failure, the historical
	// behavior).
	Reconnect bool
	// ReconnectWait is the initial re-dial backoff, doubling up to
	// reconnectMax. Default 1s.
	ReconnectWait time.Duration
	// OnJob, if set, observes every job notification (before mining
	// starts on it).
	OnJob func(JobNotify)
	// OnResult, if set, observes every share verdict.
	OnResult func(ShareResult)
	// OnDisconnect, if set, observes every transport failure the
	// reconnect loop is about to retry (never called when Reconnect is
	// off).
	OnDisconnect func(err error)
}

// ClientStats counts a client's protocol activity. Read via
// Client.Stats.
type ClientStats struct {
	Jobs       uint64 `json:"jobs"`
	Submitted  uint64 `json:"submitted"`
	Accepted   uint64 `json:"accepted"`
	Blocks     uint64 `json:"blocks"`
	Rejected   uint64 `json:"rejected"`
	Reconnects uint64 `json:"reconnects"`
}

// Client is a remote-miner pool client: it subscribes to a pool server,
// receives jobs, mines each assigned nonce window with its RangeMiner,
// and submits the shares it finds. Use Dial then Run.
type Client struct {
	cfg   ClientConfig
	miner RangeMiner

	mu   sync.Mutex
	conn *wire.Conn // current connection; replaced across reconnects

	jobs, submitted, accepted, blocks, rejected, reconnects atomic.Uint64
}

// Dial connects to the pool server. Run must be called to start the
// protocol.
func Dial(cfg ClientConfig, miner RangeMiner) (*Client, error) {
	if miner == nil {
		return nil, errors.New("pool: nil miner")
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.ReconnectWait <= 0 {
		cfg.ReconnectWait = time.Second
	}
	conn, err := net.DialTimeout("tcp", cfg.Addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("pool: dialing %s: %w", cfg.Addr, err)
	}
	return &Client{cfg: cfg, miner: miner, conn: wire.NewConn(conn, connConfig(0))}, nil
}

// Stats returns a snapshot of the client's counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Jobs:       c.jobs.Load(),
		Submitted:  c.submitted.Load(),
		Accepted:   c.accepted.Load(),
		Blocks:     c.blocks.Load(),
		Rejected:   c.rejected.Load(),
		Reconnects: c.reconnects.Load(),
	}
}

// current returns the live connection.
func (c *Client) current() *wire.Conn {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn
}

// Run subscribes and mines until ctx ends or the connection fails
// unrecoverably. Without Reconnect it returns the first transport
// failure (nil only for a context-initiated exit); with Reconnect it
// re-dials with exponential backoff and resubscribes, returning only
// when ctx ends. The current connection is always closed before
// returning.
func (c *Client) Run(ctx context.Context) error {
	conn := c.current()
	for {
		err := c.runConn(ctx, conn)
		conn.Close()
		if ctx.Err() != nil {
			return nil
		}
		if !c.cfg.Reconnect {
			return err
		}
		if c.cfg.OnDisconnect != nil {
			c.cfg.OnDisconnect(err)
		}
		conn, err = c.redial(ctx)
		if err != nil {
			return nil // only reachable via ctx cancellation
		}
		c.reconnects.Add(1)
	}
}

// redial re-establishes the connection with exponential backoff, giving
// up only when ctx ends.
func (c *Client) redial(ctx context.Context) (*wire.Conn, error) {
	backoff := wire.NewBackoff(c.cfg.ReconnectWait, reconnectMax)
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(backoff.Next()):
		}
		nc, err := net.DialTimeout("tcp", c.cfg.Addr, dialTimeout)
		if err == nil {
			conn := wire.NewConn(nc, connConfig(0))
			c.mu.Lock()
			c.conn = conn
			c.mu.Unlock()
			return conn, nil
		}
	}
}

// runConn drives one subscription session over conn: subscribe, then
// mine every notified job until ctx ends or the transport fails.
func (c *Client) runConn(ctx context.Context, conn *wire.Conn) error {
	if err := conn.WriteJSON(&Envelope{
		Type:  TypeSubscribe,
		Miner: c.cfg.MinerName,
		Agent: c.cfg.Agent,
	}); err != nil {
		return fmt.Errorf("pool: subscribing: %w", err)
	}

	jobCh := make(chan JobNotify, 8)
	readErr := make(chan error, 1)
	go c.readLoop(conn, jobCh, readErr)

	// Mining supervisor: one job mined at a time, the latest notify
	// always wins, and a clean notify (or any new job) cancels in-flight
	// mining on the previous one.
	var (
		mineCancel context.CancelFunc
		mineDone   chan struct{}
	)
	stopMining := func() {
		if mineCancel != nil {
			mineCancel()
			<-mineDone
			mineCancel = nil
		}
	}
	defer stopMining()

	for {
		select {
		case <-ctx.Done():
			conn.Close() // unblocks readLoop reads
			stopMining()
			// Keep draining jobCh so a readLoop blocked mid-send can
			// reach its exit path.
			for {
				select {
				case <-jobCh:
				case <-readErr:
					return nil
				}
			}
		case err := <-readErr:
			stopMining()
			if ctx.Err() != nil {
				return nil // context-initiated exit, not a transport failure
			}
			return err
		case job := <-jobCh:
			// Collapse queued notifications: only the newest matters.
			for {
				select {
				case job = <-jobCh:
					continue
				default:
				}
				break
			}
			stopMining()
			mctx, cancel := context.WithCancel(ctx)
			mineCancel = cancel
			mineDone = make(chan struct{})
			go func(j JobNotify) {
				defer close(mineDone)
				c.mineJob(mctx, conn, j)
			}(job)
		}
	}
}

// readLoop parses server messages, counts verdicts, and feeds job
// notifications to the supervisor. It exits (reporting on errCh) on read
// failure or a protocol error message.
func (c *Client) readLoop(conn *wire.Conn, jobCh chan<- JobNotify, errCh chan<- error) {
	for {
		line, err := conn.ReadLine()
		if err != nil {
			if err == io.EOF {
				errCh <- errors.New("pool: server closed connection")
			} else {
				errCh <- err
			}
			return
		}
		env, err := parseMsg(line)
		if err != nil {
			errCh <- err
			return
		}
		switch env.Type {
		case TypeSubscribed, TypeSetTarget:
			// Informational; the job notifications carry the targets that
			// actually govern mining.
		case TypeNotify:
			if env.Job == nil {
				errCh <- errors.New("pool: notify without job")
				return
			}
			c.jobs.Add(1)
			if c.cfg.OnJob != nil {
				c.cfg.OnJob(*env.Job)
			}
			jobCh <- *env.Job
		case TypeResult:
			if env.Status.Accepted() {
				c.accepted.Add(1)
				if env.Status == StatusBlock {
					c.blocks.Add(1)
				}
			} else {
				c.rejected.Add(1)
			}
			if c.cfg.OnResult != nil {
				c.cfg.OnResult(ShareResult{
					JobID:  env.JobID,
					Nonce:  env.Nonce,
					Status: env.Status,
					Reason: env.Reason,
				})
			}
		case TypeError:
			errCh <- fmt.Errorf("pool: server error: %s", env.Error)
			return
		default:
			// Ignore unknown message types for forward compatibility.
		}
	}
}

// mineJob sweeps the job's assigned nonce window, submitting every share
// found, until the window is exhausted or ctx is cancelled. The attempt
// budget keeps the RangeMiner approximately inside [NonceStart,
// NonceEnd); ranges are advisory (the server dedupes and verifies
// regardless), so worker-stride overshoot at the window edge is
// harmless.
func (c *Client) mineJob(ctx context.Context, conn *wire.Conn, job JobNotify) {
	prefix, err := hex.DecodeString(job.Prefix)
	if err != nil {
		return
	}
	target, err := pow.CompactToTarget(job.ShareBits)
	if err != nil {
		return
	}
	cursor := job.NonceStart
	for cursor < job.NonceEnd && ctx.Err() == nil {
		res, err := c.miner.MineRange(ctx, prefix, [32]byte(target), c.cfg.Workers, cursor, job.NonceEnd-cursor)
		if err != nil {
			// Window exhausted without a share, or cancelled: either way
			// this job is done; wait for the next notify.
			return
		}
		c.submitted.Add(1)
		if err := conn.WriteJSON(&Envelope{Type: TypeSubmit, JobID: job.ID, Nonce: res.Nonce}); err != nil {
			return
		}
		cursor = res.Nonce + 1
	}
}
