// Package simnet is an in-process network laboratory: an implementation
// of the net.Conn / dial / listen seams the wire and p2p layers consume,
// with the faults the lab's scenarios inject — one propagation latency,
// partitions, and whole-host blackouts — so one test process can run
// hundreds of nodes through adversarial scenarios (churn, partition+heal,
// eclipse, flooding) that would need a fleet of machines otherwise.
//
// Topology model: a Network holds named Hosts. A Host listens on
// addresses of the form "host:service" and dials other hosts' addresses;
// every connection is a full-duplex in-memory byte stream whose bytes
// arrive one Latency after they were written. Partitions and blackouts
// are checked at write time (so they sever live connections
// immediately) and at dial time. The fabric draws no random numbers.
package simnet

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"
)

// Config parameterizes a Network.
type Config struct {
	// Latency is the one-way propagation delay added to every delivery
	// and every dial.
	Latency time.Duration
}

// Network is a simulated internetwork of named hosts. All methods are
// safe for concurrent use.
type Network struct {
	mu        sync.Mutex
	cfg       Config
	listeners map[string]*listener // listen address -> listener
	conns     map[*conn]struct{}   // every live endpoint
	partition map[string]int       // host -> group id; empty map = no partition
	down      map[string]bool
	nextEphem int
}

// New creates an empty network.
func New(cfg Config) *Network {
	return &Network{
		cfg:       cfg,
		listeners: make(map[string]*listener),
		conns:     make(map[*conn]struct{}),
		partition: make(map[string]int),
		down:      make(map[string]bool),
	}
}

// Host returns a handle for the named host (creating nothing; hosts are
// implicit). Host names must not contain ':'.
func (n *Network) Host(name string) *Host { return &Host{net: n, name: name} }

// Host is one endpoint identity on the network: the value whose Listen
// and Dial closures get wired into p2p.Config so a Manager's traffic
// originates from this host.
type Host struct {
	net  *Network
	name string
}

// Name returns the host's name.
func (h *Host) Name() string { return h.name }

// Listen binds a listener on addr, which must be of the form
// "host:service" with the host part equal to this host's name (the
// p2p.Config.ListenAddr convention carries over unchanged).
func (h *Host) Listen(addr string) (net.Listener, error) {
	if hostOf(addr) != h.name {
		return nil, fmt.Errorf("simnet: host %q cannot listen on %q", h.name, addr)
	}
	return h.net.listen(addr)
}

// Dial connects to a listener's address, subject to latency,
// partitions and host state. timeout bounds the whole attempt.
func (h *Host) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	return h.net.dial(h.name, addr, timeout)
}

// DialFunc adapts Dial to the p2p.Config.Dial seam.
func (h *Host) DialFunc() func(addr string, timeout time.Duration) (net.Conn, error) {
	return h.Dial
}

// ListenFunc adapts Listen to the p2p.Config.Listen seam.
func (h *Host) ListenFunc() func(addr string) (net.Listener, error) {
	return h.Listen
}

// Partition splits the network into the given host groups: connections
// between hosts in different groups are severed (both ends see a reset)
// and new cross-group dials are refused. Hosts not named in any group
// form an implicit extra group. Heal removes the partition.
func (n *Network) Partition(groups ...[]string) {
	n.mu.Lock()
	part := make(map[string]int)
	for gi, group := range groups {
		for _, host := range group {
			part[host] = gi + 1
		}
	}
	n.partition = part
	victims := n.crossPartitionConnsLocked()
	n.mu.Unlock()
	for _, c := range victims {
		c.reset(errPartitioned)
	}
}

// Heal removes any partition.
func (n *Network) Heal() {
	n.mu.Lock()
	n.partition = make(map[string]int)
	n.mu.Unlock()
}

// Down takes a host off the network: all its connections are severed and
// dials to or from it fail until Up. The host's listeners stay bound —
// this models a network blackout (cable pull), not a process crash.
func (n *Network) Down(host string) {
	n.mu.Lock()
	n.down[host] = true
	var victims []*conn
	for c := range n.conns {
		if c.localHost == host || c.remoteHost == host {
			victims = append(victims, c)
		}
	}
	n.mu.Unlock()
	for _, c := range victims {
		c.reset(errHostDown)
	}
}

// Up restores a downed host.
func (n *Network) Up(host string) {
	n.mu.Lock()
	delete(n.down, host)
	n.mu.Unlock()
}

// crossPartitionConnsLocked returns the endpoints whose two hosts are now
// in different groups. Caller holds n.mu.
func (n *Network) crossPartitionConnsLocked() []*conn {
	var out []*conn
	for c := range n.conns {
		if n.partition[c.localHost] != n.partition[c.remoteHost] {
			out = append(out, c)
		}
	}
	return out
}

// partitionedLocked reports whether traffic between two hosts is cut.
func (n *Network) partitionedLocked(a, b string) bool {
	return n.partition[a] != n.partition[b]
}

// listen binds addr to a fresh listener.
func (n *Network) listen(addr string) (net.Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, taken := n.listeners[addr]; taken {
		return nil, fmt.Errorf("simnet: address %s already in use", addr)
	}
	l := &listener{
		net:    n,
		addr:   address{str: addr},
		accept: make(chan *conn, 128),
		done:   make(chan struct{}),
	}
	n.listeners[addr] = l
	return l, nil
}

var (
	errPartitioned = errors.New("simnet: connection reset (partition)")
	errHostDown    = errors.New("simnet: connection reset (host down)")
	errRefused     = errors.New("simnet: connection refused")
)

// dial establishes a connection from host `from` to the listener at addr.
func (n *Network) dial(from, addr string, timeout time.Duration) (net.Conn, error) {
	to := hostOf(addr)

	// Admission checks snapshot current network state.
	n.mu.Lock()
	l, ok := n.listeners[addr]
	refused := !ok
	if n.down[from] || n.down[to] || n.partitionedLocked(from, to) {
		refused = true
	}
	n.mu.Unlock()

	// Propagation delay applies even to failed dials (a SYN has to cross
	// the link before anyone can refuse it).
	delay := n.cfg.Latency
	if timeout > 0 && delay > timeout {
		time.Sleep(timeout)
		return nil, &timeoutError{op: "dial", addr: addr}
	}
	time.Sleep(delay)
	if refused {
		return nil, fmt.Errorf("simnet: dial %s from %s: %w", addr, from, errRefused)
	}

	n.mu.Lock()
	// Re-check: the listener may have closed (or the world changed) while
	// the SYN was in flight.
	if _, still := n.listeners[addr]; !still || n.down[from] || n.down[to] || n.partitionedLocked(from, to) {
		n.mu.Unlock()
		return nil, fmt.Errorf("simnet: dial %s from %s: %w", addr, from, errRefused)
	}
	n.nextEphem++
	ephem := n.nextEphem
	dialSide, acceptSide := newConnPair(n, from, to, addr, ephem)
	n.conns[dialSide] = struct{}{}
	n.conns[acceptSide] = struct{}{}
	n.mu.Unlock()

	select {
	case l.accept <- acceptSide:
		return dialSide, nil
	case <-l.done:
		dialSide.teardown()
		return nil, fmt.Errorf("simnet: dial %s from %s: %w", addr, from, errRefused)
	default:
		// Accept backlog full: refuse, as a kernel would.
		dialSide.teardown()
		return nil, fmt.Errorf("simnet: dial %s from %s: backlog full: %w", addr, from, errRefused)
	}
}

// drop removes an endpoint from the registry (on close/reset).
func (n *Network) drop(c *conn) {
	n.mu.Lock()
	delete(n.conns, c)
	n.mu.Unlock()
}

// listener implements net.Listener over the network's accept queue.
type listener struct {
	net       *Network
	addr      address
	accept    chan *conn
	done      chan struct{}
	closeOnce sync.Once
}

func (l *listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *listener) Close() error {
	l.closeOnce.Do(func() {
		l.net.mu.Lock()
		delete(l.net.listeners, l.addr.str)
		l.net.mu.Unlock()
		close(l.done)
		// Refuse connections already queued but never accepted.
		for {
			select {
			case c := <-l.accept:
				c.reset(errRefused)
			default:
				return
			}
		}
	})
	return nil
}

func (l *listener) Addr() net.Addr { return l.addr }

// address implements net.Addr for simnet endpoints.
type address struct{ str string }

func (a address) Network() string { return "simnet" }
func (a address) String() string  { return a.str }

// timeoutError satisfies net.Error with Timeout() == true, so transport
// layers treat simnet deadline expiry exactly like a TCP timeout.
type timeoutError struct{ op, addr string }

func (e *timeoutError) Error() string {
	return fmt.Sprintf("simnet: %s %s: i/o timeout", e.op, e.addr)
}
func (e *timeoutError) Timeout() bool   { return true }
func (e *timeoutError) Temporary() bool { return true }

// hostOf extracts the host part of "host:service".
func hostOf(addr string) string {
	if i := strings.LastIndexByte(addr, ':'); i >= 0 {
		return addr[:i]
	}
	return addr
}
