// Package simnet is an in-process network laboratory: an implementation
// of the net.Conn / dial / listen seams the wire and p2p layers consume,
// with injectable faults — latency, jitter, bandwidth caps, packet drops,
// connection resets, dial failures, partitions, and whole-host blackouts
// — so one test process can run hundreds of nodes through adversarial
// scenarios (churn, partition+heal, eclipse, flooding) that would need a
// fleet of machines otherwise.
//
// Topology model: a Network holds named Hosts. A Host listens on
// addresses of the form "host:service" and dials other hosts' addresses;
// every connection is a full-duplex in-memory byte stream whose delivery
// schedule is shaped by the LinkConfig in force between the two hosts.
// Faults are injected at write time (so runtime changes to links,
// partitions and host state apply to live connections immediately) and
// at dial time. All fault randomness flows from one seeded PRNG, so a
// scenario's fault schedule is reproducible.
package simnet

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"time"
)

// LinkConfig shapes traffic between a pair of hosts. The zero value is a
// perfect link: no delay, unlimited bandwidth, no loss.
type LinkConfig struct {
	// Latency is the one-way propagation delay added to every delivery.
	Latency time.Duration
	// Jitter adds a uniform random [0, Jitter) to each delivery.
	Jitter time.Duration
	// Bandwidth caps the link in bytes/second (0 = unlimited). Transfers
	// serialize: a large write occupies the link, delaying later writes.
	Bandwidth int
	// DropRate silently discards a written chunk with this probability.
	// A dropped chunk tears a hole mid-stream — the reader sees the
	// remaining bytes spliced together, exactly the garbage a framing
	// layer must survive. [0, 1].
	DropRate float64
	// ResetRate kills the connection (both ends) with this probability
	// per write, modeling RSTs from a flaky middlebox. [0, 1].
	ResetRate float64
	// DialFailRate makes a dial attempt fail with this probability. [0, 1].
	DialFailRate float64
}

// Config parameterizes a Network.
type Config struct {
	// Seed fixes the fault PRNG (0 picks a fixed default, so runs are
	// reproducible unless the caller varies it).
	Seed int64
	// DefaultLink applies between every pair of hosts without an explicit
	// SetLink override.
	DefaultLink LinkConfig
	// MaxBuffered bounds one direction's in-flight bytes before writers
	// block (backpressure). Default 1 MiB.
	MaxBuffered int
}

// Network is a simulated internetwork of named hosts. All methods are
// safe for concurrent use.
type Network struct {
	mu        sync.Mutex
	cfg       Config
	listeners map[string]*listener // listen address -> listener
	conns     map[*conn]struct{}   // every live endpoint
	links     map[[2]string]LinkConfig
	partition map[string]int // host -> group id; empty map = no partition
	down      map[string]bool
	nextEphem int

	rngMu sync.Mutex
	rng   *rand.Rand
}

// New creates an empty network.
func New(cfg Config) *Network {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.MaxBuffered <= 0 {
		cfg.MaxBuffered = 1 << 20
	}
	return &Network{
		cfg:       cfg,
		listeners: make(map[string]*listener),
		conns:     make(map[*conn]struct{}),
		links:     make(map[[2]string]LinkConfig),
		partition: make(map[string]int),
		down:      make(map[string]bool),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
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
	return h.net.listen(h.name, addr)
}

// Dial connects to a listener's address, subject to link faults,
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

// SetLink installs an explicit link configuration between hosts a and b
// (both directions). Live connections pick it up on their next write.
func (n *Network) SetLink(a, b string, link LinkConfig) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[linkKey(a, b)] = link
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

// linkFor returns the link configuration in force between two hosts.
func (n *Network) linkFor(a, b string) LinkConfig {
	n.mu.Lock()
	defer n.mu.Unlock()
	if link, ok := n.links[linkKey(a, b)]; ok {
		return link
	}
	return n.cfg.DefaultLink
}

// chance draws one fault decision from the seeded PRNG.
func (n *Network) chance(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	n.rngMu.Lock()
	v := n.rng.Float64()
	n.rngMu.Unlock()
	return v < p
}

// jitterFor draws a uniform [0, j) delay.
func (n *Network) jitterFor(j time.Duration) time.Duration {
	if j <= 0 {
		return 0
	}
	n.rngMu.Lock()
	d := time.Duration(n.rng.Int63n(int64(j)))
	n.rngMu.Unlock()
	return d
}

// listen binds addr to a fresh listener.
func (n *Network) listen(host, addr string) (net.Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, taken := n.listeners[addr]; taken {
		return nil, fmt.Errorf("simnet: address %s already in use", addr)
	}
	l := &listener{
		net:    n,
		host:   host,
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
	errDialDropped = errors.New("simnet: dial lost (link fault)")
)

// dial establishes a connection from host `from` to the listener at addr.
func (n *Network) dial(from, addr string, timeout time.Duration) (net.Conn, error) {
	to := hostOf(addr)
	link := n.linkFor(from, to)

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
	delay := link.Latency + n.jitterFor(link.Jitter)
	if timeout > 0 && delay > timeout {
		time.Sleep(timeout)
		return nil, &timeoutError{op: "dial", addr: addr}
	}
	time.Sleep(delay)
	if refused {
		return nil, fmt.Errorf("simnet: dial %s from %s: %w", addr, from, errRefused)
	}
	if n.chance(link.DialFailRate) {
		return nil, fmt.Errorf("simnet: dial %s from %s: %w", addr, from, errDialDropped)
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
	host      string
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

// linkKey canonicalizes an unordered host pair.
func linkKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}
