// Package wire is the shared transport layer for every network protocol
// in the repository: newline-delimited JSON (NDJSON) framing over TCP,
// with per-line size limits, locked writes with deadlines, a typed
// Envelope codec for protocols that carry heterogeneous payloads, and a
// Peer abstraction bundling the connection lifecycle a long-lived
// protocol session needs — handshake, keepalive pings with idle
// timeout, dispatch loop and graceful close.
//
// The mining-pool protocol (internal/pool) rides Conn directly with its
// own flat message schema; the block-sync protocol (internal/p2p) rides
// Peer with Envelope-framed messages. Both share the same framing
// invariants: one JSON object per "\n"-terminated line, never larger
// than the connection's configured limit.
package wire

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"net"
	"sync"
	"time"
)

// DefaultMaxLine bounds one protocol line when ConnConfig leaves MaxLine
// zero. Pool messages are ~100 bytes of hex plus JSON overhead, so this
// is generous; it exists to stop a misbehaving peer from ballooning the
// read buffer.
const DefaultMaxLine = 1 << 16

// ErrLineTooLong is returned when a peer sends a line exceeding the
// connection's MaxLine.
var ErrLineTooLong = errors.New("wire: line exceeds length limit")

// ConnConfig parameterizes a framed connection. Zero values select the
// documented defaults.
type ConnConfig struct {
	// MaxLine bounds one NDJSON line in bytes. Default DefaultMaxLine.
	MaxLine int
	// WriteTimeout bounds each write; a peer that cannot drain a message
	// within it gets a write error (and is typically dropped by the
	// caller). Zero means no deadline.
	WriteTimeout time.Duration
	// Tally, when non-nil, accumulates this connection's byte/frame
	// accounting into a shared total (one tally per daemon, exposed as
	// the hc_net_* metrics).
	Tally *ConnTally
}

// Conn is an NDJSON-framed network connection: ReadLine/ReadJSON return
// one non-empty line at a time (bounded by MaxLine), WriteJSON encodes
// one value as one line under an internal lock so concurrent writers
// never interleave frames. Reads are single-consumer (one goroutine);
// writes and Close are safe from any goroutine.
type Conn struct {
	nc    net.Conn
	sc    *bufio.Scanner
	cfg   ConnConfig
	tally *ConnTally // optional shared accounting (cfg.Tally)

	wmu sync.Mutex

	closeOnce sync.Once
	closeErr  error
}

// NewConn wraps nc with NDJSON framing.
func NewConn(nc net.Conn, cfg ConnConfig) *Conn {
	if cfg.MaxLine <= 0 {
		cfg.MaxLine = DefaultMaxLine
	}
	c := &Conn{nc: nc, cfg: cfg, tally: cfg.Tally}
	sc := bufio.NewScanner(countingReader{c})
	// The scanner's token limit is max(cap(initial), limit), so the
	// initial buffer must not exceed MaxLine or it silently raises it.
	initial := 4096
	if initial > cfg.MaxLine {
		initial = cfg.MaxLine
	}
	sc.Buffer(make([]byte, initial), cfg.MaxLine)
	c.sc = sc
	return c
}

// ReadLine returns the next non-empty line, without its terminator. The
// returned slice is only valid until the next ReadLine. Oversized lines
// return ErrLineTooLong; a cleanly closed connection returns io.EOF.
func (c *Conn) ReadLine() ([]byte, error) {
	for c.sc.Scan() {
		line := c.sc.Bytes()
		if len(line) == 0 {
			continue
		}
		c.tally.frameIn()
		return line, nil
	}
	if err := c.sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, ErrLineTooLong
		}
		return nil, err
	}
	return nil, io.EOF
}

// ReadJSON reads one line and unmarshals it into v. Transport errors and
// decode errors are distinguishable: decode failures wrap
// ErrMalformed while the connection stays readable.
func (c *Conn) ReadJSON(v any) error {
	line, err := c.ReadLine()
	if err != nil {
		return err
	}
	if err := json.Unmarshal(line, v); err != nil {
		return &MalformedError{Err: err}
	}
	return nil
}

// WriteJSON encodes v as one NDJSON line under the write lock, applying
// the configured write deadline. json.Encoder appends the newline.
func (c *Conn) WriteJSON(v any) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.cfg.WriteTimeout > 0 {
		_ = c.nc.SetWriteDeadline(time.Now().Add(c.cfg.WriteTimeout))
	}
	err := json.NewEncoder(countingWriter{c}).Encode(v)
	if err == nil {
		// Frames count only complete lines; a partial write leaves its
		// byte prefix in the tally but no frame.
		c.tally.frameOut()
	}
	return err
}

// WriteLine writes one pre-serialized frame — a complete line whose
// final byte must be '\n' — under the write lock, applying the
// configured write deadline. It is the marshal-once fan-out path: the
// caller rendered the frame once (or patched a shared template) and
// the connection pays only the locked write, no per-conn encoding.
func (c *Conn) WriteLine(line []byte) error {
	if len(line) == 0 || line[len(line)-1] != '\n' {
		return errors.New("wire: WriteLine frame must end in '\\n'")
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.cfg.WriteTimeout > 0 {
		_ = c.nc.SetWriteDeadline(time.Now().Add(c.cfg.WriteTimeout))
	}
	_, err := countingWriter{c}.Write(line)
	if err == nil {
		c.tally.frameOut()
	}
	return err
}

// SetReadDeadline bounds the next read, for callers that enforce idle
// timeouts above the framing layer.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.nc.SetReadDeadline(t) }

// RemoteAddr returns the remote network address.
func (c *Conn) RemoteAddr() net.Addr { return c.nc.RemoteAddr() }

// Close closes the underlying connection once; further calls return the
// first result.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() { c.closeErr = c.nc.Close() })
	return c.closeErr
}

// MalformedError reports a line that was framed correctly but failed to
// decode. The connection itself is still usable; the caller decides
// whether one bad message poisons the session.
type MalformedError struct{ Err error }

func (e *MalformedError) Error() string { return "wire: malformed message: " + e.Err.Error() }
func (e *MalformedError) Unwrap() error { return e.Err }

// ErrMalformed matches any MalformedError via errors.Is.
var ErrMalformed = errors.New("wire: malformed message")

// Is makes errors.Is(err, ErrMalformed) true for MalformedError values.
func (e *MalformedError) Is(target error) bool { return target == ErrMalformed }
