package wire

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Built-in envelope types every Peer session understands. Protocol
// packages define their own types alongside these; the lifecycle types
// never reach the protocol handler.
const (
	// TypeHello opens a session: both sides send one immediately after
	// connecting and read the other's before anything else.
	TypeHello = "hello"
	// TypePing is the keepalive probe; TypePong the reply. Any traffic
	// resets the receiver's idle timer, so pongs exist mostly to keep a
	// quiet-but-healthy link from idling out in both directions.
	TypePing = "ping"
	TypePong = "pong"
	// TypeClose announces a graceful shutdown; the receiver's Run
	// returns nil instead of a transport error.
	TypeClose = "close"
)

// Hello is the handshake payload: enough for each side to decide the
// other speaks the same protocol about the same chain.
type Hello struct {
	// Network names the protocol network (e.g. "hashcore"); peers on
	// different networks refuse each other.
	Network string `json:"network"`
	// Genesis is the hex block identity of the chain's genesis; peers on
	// different chains refuse each other.
	Genesis string `json:"genesis,omitempty"`
	// Agent is a free-form software version string.
	Agent string `json:"agent,omitempty"`
	// Height is the sender's best height at connect time (advisory).
	Height int `json:"height"`
}

// PeerConfig parameterizes a Peer session. Zero values select the
// documented defaults.
type PeerConfig struct {
	// Hello is this side's handshake payload.
	Hello Hello
	// Conn carries the framing limits (MaxLine, WriteTimeout).
	Conn ConnConfig
	// PingInterval is the keepalive period. Default 15s; negative
	// disables pings (tests).
	PingInterval time.Duration
	// idleTimeout drops the session when nothing arrives for this long.
	// It is a per-read deadline, so it must also comfortably exceed the
	// transfer time of the largest single message the protocol can
	// carry. Always 4x the ping interval (or 60s when pings are
	// disabled); only tests shorten it.
	idleTimeout time.Duration
	// HandshakeTimeout bounds the hello exchange. Default 10s.
	HandshakeTimeout time.Duration
	// MsgRate bounds inbound messages per second (every frame counts,
	// lifecycle pings included — a ping flood is still a flood). A peer
	// exceeding it ends the session with ErrRateLimited. Zero disables
	// the limit (the historical behavior).
	MsgRate float64
	// msgBurst is the rate limiter's bucket depth: how far above MsgRate
	// a short burst may go. 4x MsgRate unless a test sets it.
	msgBurst int
}

// DefaultPingInterval is the keepalive period when PeerConfig leaves it
// zero.
const DefaultPingInterval = 15 * time.Second

func (c *PeerConfig) fillDefaults() {
	if c.PingInterval == 0 {
		c.PingInterval = DefaultPingInterval
	}
	if c.idleTimeout <= 0 {
		if c.PingInterval > 0 {
			c.idleTimeout = 4 * c.PingInterval
		} else {
			c.idleTimeout = time.Minute
		}
	}
	if c.HandshakeTimeout <= 0 {
		c.HandshakeTimeout = 10 * time.Second
	}
	if c.MsgRate > 0 && c.msgBurst < 1 {
		c.msgBurst = int(4 * c.MsgRate)
	}
}

// ErrHandshake reports a failed hello exchange.
var ErrHandshake = errors.New("wire: handshake failed")

// Peer is one long-lived protocol session over a framed connection: a
// handshake, a dispatch loop feeding protocol messages to a handler, a
// keepalive ping loop with idle timeout, and a graceful close that the
// other side can tell apart from a dropped TCP connection. Send and
// Close are safe from any goroutine.
type Peer struct {
	conn *Conn
	cfg  PeerConfig

	remote  Hello
	limiter *TokenBucket // nil when MsgRate is unlimited

	closing   atomic.Bool
	closeOnce sync.Once
	quit      chan struct{}
}

// NewPeer wraps nc. Handshake must run (and succeed) before Run.
func NewPeer(nc net.Conn, cfg PeerConfig) *Peer {
	cfg.fillDefaults()
	p := &Peer{
		conn: NewConn(nc, cfg.Conn),
		cfg:  cfg,
		quit: make(chan struct{}),
	}
	if cfg.MsgRate > 0 {
		p.limiter = NewTokenBucket(cfg.MsgRate, cfg.msgBurst)
	}
	return p
}

// Handshake sends this side's hello and reads the other's. Both sides
// send first and then read, so the exchange cannot deadlock. The remote
// hello is retained (see Remote); validating its contents is the
// caller's job.
func (p *Peer) Handshake() (Hello, error) {
	deadline := time.Now().Add(p.cfg.HandshakeTimeout)
	env, err := NewEnvelope(TypeHello, p.cfg.Hello)
	if err != nil {
		return Hello{}, err
	}
	if err := p.conn.WriteJSON(env); err != nil {
		return Hello{}, fmt.Errorf("%w: sending hello: %w", ErrHandshake, err)
	}
	_ = p.conn.SetReadDeadline(deadline)
	var got Envelope
	if err := p.conn.ReadJSON(&got); err != nil {
		return Hello{}, fmt.Errorf("%w: reading hello: %w", ErrHandshake, err)
	}
	if got.Type != TypeHello {
		return Hello{}, fmt.Errorf("%w: first message is %q, want %q", ErrHandshake, got.Type, TypeHello)
	}
	var remote Hello
	if err := got.Decode(&remote); err != nil {
		return Hello{}, fmt.Errorf("%w: %w", ErrHandshake, err)
	}
	p.remote = remote
	return remote, nil
}

// Remote returns the hello the other side sent (zero before Handshake).
func (p *Peer) Remote() Hello { return p.remote }

// RemoteAddr returns the remote network address.
func (p *Peer) RemoteAddr() net.Addr { return p.conn.RemoteAddr() }

// Send packs payload under typ and writes it as one frame.
func (p *Peer) Send(typ string, payload any) error {
	env, err := NewEnvelope(typ, payload)
	if err != nil {
		return err
	}
	return p.conn.WriteJSON(env)
}

// Run drives the session: a keepalive ping loop plus the read loop,
// dispatching every protocol message to handler (lifecycle messages —
// ping, pong, close — are consumed here). It returns nil on a graceful
// end (either side sent TypeClose), a MalformedError if the peer sent
// garbage, the handler's error if it rejected a message, or the
// transport error otherwise. The connection is always closed by the
// time Run returns. Handler runs on the read goroutine, so one message
// is processed at a time.
func (p *Peer) Run(handler func(Envelope) error) error {
	defer p.conn.Close()

	var pingWG sync.WaitGroup
	if p.cfg.PingInterval > 0 {
		pingWG.Add(1)
		go func() {
			defer pingWG.Done()
			ticker := time.NewTicker(p.cfg.PingInterval)
			defer ticker.Stop()
			for {
				select {
				case <-p.quit:
					return
				case <-ticker.C:
					if err := p.Send(TypePing, nil); err != nil {
						p.conn.Close() // unblock the read loop
						return
					}
				}
			}
		}()
	}
	defer pingWG.Wait()
	defer p.closeQuit()

	for {
		_ = p.conn.SetReadDeadline(time.Now().Add(p.cfg.idleTimeout))
		line, err := p.conn.ReadLine()
		if err != nil {
			if p.closing.Load() {
				return nil // we initiated the close; not a failure
			}
			return err
		}
		if p.limiter != nil && !p.limiter.Allow(time.Now()) {
			return ErrRateLimited
		}
		env, err := ParseEnvelope(line)
		if err != nil {
			return err
		}
		switch env.Type {
		case TypePing:
			if err := p.Send(TypePong, nil); err != nil {
				return err
			}
		case TypePong:
			// Any received frame already reset the idle timer.
		case TypeClose:
			return nil
		case TypeHello:
			// A second hello is a protocol violation.
			return fmt.Errorf("wire: unexpected hello mid-session")
		default:
			if err := handler(env); err != nil {
				return err
			}
		}
	}
}

func (p *Peer) closeQuit() {
	p.closeOnce.Do(func() { close(p.quit) })
}

// Close ends the session gracefully: it tells the other side
// (best-effort, bounded by the write timeout) and closes the
// connection, which makes a concurrent Run return nil.
func (p *Peer) Close() error {
	p.closing.Store(true)
	p.closeQuit()
	_ = p.Send(TypeClose, nil)
	return p.conn.Close()
}
