package simnet

import (
	"errors"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// errBrokenPipe reports a write into a connection whose reader is gone.
var errBrokenPipe = errors.New("simnet: broken pipe")

// chunkBytes is the write granularity: one Write is split into chunks
// so backpressure and a partition or blackout declared mid-write act at
// packet-ish scale rather than per whole (possibly multi-megabyte)
// protocol line.
const chunkBytes = 16 << 10

// maxBuffered bounds one direction's in-flight bytes before writers
// block (backpressure).
const maxBuffered = 1 << 20

// segment is one delivered-in-order chunk with its arrival time.
type segment struct {
	at   time.Time
	data []byte
}

// halfConn is one direction of a connection: the receive buffer its
// reader drains and its (single) writer fills. Arrival times implement
// latency; the size cap implements backpressure.
type halfConn struct {
	mu        sync.Mutex
	notify    chan struct{} // closed+replaced on every state change
	segs      []segment
	size      int       // bytes queued (backpressure accounting)
	closed    bool      // writer sent FIN: EOF after the queue drains
	err       error     // sticky fault: reset/refused; preempts queued data
	rdeadline time.Time // reader's deadline
	wdeadline time.Time // writer's deadline
}

func newHalfConn() *halfConn {
	return &halfConn{notify: make(chan struct{})}
}

// signalLocked wakes every waiter. Caller holds h.mu.
func (h *halfConn) signalLocked() {
	close(h.notify)
	h.notify = make(chan struct{})
}

// wait blocks until the state changes or wake passes (zero = no limit).
// Caller holds h.mu; wait unlocks during the sleep and relocks before
// returning.
func (h *halfConn) wait(wake time.Time) {
	ch := h.notify
	h.mu.Unlock()
	defer h.mu.Lock()
	if wake.IsZero() {
		<-ch
		return
	}
	d := time.Until(wake)
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ch:
	case <-t.C:
	}
}

// fail injects a sticky error (reset): pending data is discarded and
// every current and future reader/writer fails immediately.
func (h *halfConn) fail(err error) {
	h.mu.Lock()
	if h.err == nil {
		h.err = err
	}
	h.segs = nil
	h.size = 0
	h.signalLocked()
	h.mu.Unlock()
}

// finish closes the write side gracefully (FIN): the reader drains what
// was delivered, then sees EOF.
func (h *halfConn) finish() {
	h.mu.Lock()
	h.closed = true
	h.signalLocked()
	h.mu.Unlock()
}

// conn is one endpoint of an established simnet connection.
type conn struct {
	net        *Network
	localHost  string
	remoteHost string
	local      address
	remote     address
	inbox      *halfConn // what we read
	out        *halfConn // the peer's inbox: what we write
	pair       *conn
	closed     atomic.Bool
	dropOnce   sync.Once
}

// newConnPair wires both endpoints of a connection between from (the
// dialer, with an ephemeral port) and the listener at addr.
func newConnPair(n *Network, from, to, addr string, ephem int) (dialSide, acceptSide *conn) {
	toDialer := newHalfConn()   // accept side writes, dialer reads
	toAccepter := newHalfConn() // dialer writes, accept side reads
	dialerAddr := address{str: from + ":" + "e" + strconv.Itoa(ephem)}
	listenAddr := address{str: addr}
	d := &conn{
		net: n, localHost: from, remoteHost: to,
		local: dialerAddr, remote: listenAddr,
		inbox: toDialer, out: toAccepter,
	}
	a := &conn{
		net: n, localHost: to, remoteHost: from,
		local: listenAddr, remote: dialerAddr,
		inbox: toAccepter, out: toDialer,
	}
	d.pair, a.pair = a, d
	return d, a
}

// Read drains arrived bytes in order, honoring the read deadline.
func (c *conn) Read(p []byte) (int, error) {
	if c.closed.Load() {
		return 0, net.ErrClosed
	}
	if len(p) == 0 {
		return 0, nil
	}
	h := c.inbox
	h.mu.Lock()
	defer h.mu.Unlock()
	for {
		if h.err != nil {
			return 0, h.err
		}
		now := time.Now()
		if len(h.segs) > 0 && !h.segs[0].at.After(now) {
			n := 0
			for n < len(p) && len(h.segs) > 0 && !h.segs[0].at.After(now) {
				seg := &h.segs[0]
				m := copy(p[n:], seg.data)
				n += m
				if m == len(seg.data) {
					h.segs = h.segs[1:]
				} else {
					seg.data = seg.data[m:]
				}
			}
			h.size -= n
			h.signalLocked() // free space for a blocked writer
			return n, nil
		}
		if h.closed && len(h.segs) == 0 {
			return 0, io.EOF
		}
		if !h.rdeadline.IsZero() && !now.Before(h.rdeadline) {
			return 0, &timeoutError{op: "read", addr: c.remote.str}
		}
		wake := h.rdeadline
		if len(h.segs) > 0 && (wake.IsZero() || h.segs[0].at.Before(wake)) {
			wake = h.segs[0].at
		}
		if c.closed.Load() {
			return 0, net.ErrClosed
		}
		h.wait(wake)
	}
}

// Write enqueues p for delayed delivery, chunk by chunk. It blocks when
// the peer's receive buffer is full (backpressure) and fails on
// deadline, reset, partition or host blackout.
func (c *conn) Write(p []byte) (int, error) {
	if c.closed.Load() {
		return 0, net.ErrClosed
	}
	written := 0
	for written < len(p) {
		end := written + chunkBytes
		if end > len(p) {
			end = len(p)
		}
		chunk := p[written:end]

		// Cuts are evaluated per chunk against the network's *current*
		// state, so partitions and blackouts hit live connections.
		c.net.mu.Lock()
		cut := c.net.down[c.localHost] || c.net.down[c.remoteHost] ||
			c.net.partitionedLocked(c.localHost, c.remoteHost)
		c.net.mu.Unlock()
		if cut {
			c.reset(errPartitioned)
			return written, errPartitioned
		}
		n, err := c.enqueue(chunk)
		written += n
		if err != nil {
			return written, err
		}
	}
	return len(p), nil
}

// enqueue places one chunk (possibly in parts, under backpressure) into
// the peer's inbox with its computed arrival time.
func (c *conn) enqueue(chunk []byte) (int, error) {
	h := c.out
	h.mu.Lock()
	defer h.mu.Unlock()
	done := 0
	for done < len(chunk) {
		if h.err != nil {
			return done, h.err
		}
		if h.closed || c.closed.Load() {
			return done, errBrokenPipe
		}
		now := time.Now()
		if !h.wdeadline.IsZero() && !now.Before(h.wdeadline) {
			return done, &timeoutError{op: "write", addr: c.remote.str}
		}
		space := maxBuffered - h.size
		if space <= 0 {
			h.wait(h.wdeadline)
			continue
		}
		m := len(chunk) - done
		if m > space {
			m = space
		}
		at := now.Add(c.net.cfg.Latency)
		data := make([]byte, m)
		copy(data, chunk[done:done+m])
		h.segs = append(h.segs, segment{at: at, data: data})
		h.size += m
		done += m
		h.signalLocked()
	}
	return done, nil
}

// reset kills the connection hard: both directions fail with err on both
// endpoints immediately (the simnet equivalent of an RST).
func (c *conn) reset(err error) {
	c.inbox.fail(err)
	c.out.fail(err)
	c.teardown()
}

// teardown removes both endpoints from the network registry.
func (c *conn) teardown() {
	c.dropOnce.Do(func() {
		c.net.drop(c)
		if c.pair != nil {
			c.net.drop(c.pair)
		}
	})
}

// Close closes this endpoint: local operations fail with net.ErrClosed,
// the peer drains in-flight data and then sees EOF (a clean FIN). The
// peer's *writes* fail with a broken pipe — nobody is left to read
// them, and a real stack answers data-after-close with an RST; without
// this, a peer blasting at a closed endpoint would fill the receive
// buffer and block on backpressure forever.
func (c *conn) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	c.out.finish()
	c.inbox.mu.Lock()
	c.inbox.closed = true // peer's enqueue sees this and fails
	c.inbox.signalLocked()
	c.inbox.mu.Unlock()
	c.teardown()
	return nil
}

func (c *conn) LocalAddr() net.Addr  { return c.local }
func (c *conn) RemoteAddr() net.Addr { return c.remote }

func (c *conn) SetDeadline(t time.Time) error {
	if err := c.SetReadDeadline(t); err != nil {
		return err
	}
	return c.SetWriteDeadline(t)
}

func (c *conn) SetReadDeadline(t time.Time) error {
	h := c.inbox
	h.mu.Lock()
	h.rdeadline = t
	h.signalLocked()
	h.mu.Unlock()
	return nil
}

func (c *conn) SetWriteDeadline(t time.Time) error {
	h := c.out
	h.mu.Lock()
	h.wdeadline = t
	h.signalLocked()
	h.mu.Unlock()
	return nil
}
