package p2p

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"strings"
	"sync"
	"time"

	"hashcore/internal/blockchain"
	"hashcore/internal/telemetry"
	"hashcore/internal/wire"
)

// dialTimeout bounds one outbound TCP dial and writeTimeout one
// protocol write to a peer; scoreHalfLife is the misbehavior score's
// exponential decay half-life, so old offenses are forgiven.
const (
	dialTimeout   = 10 * time.Second
	writeTimeout  = 10 * time.Second
	scoreHalfLife = 10 * time.Minute
)

// Config parameterizes a peer manager. Zero values select the
// documented defaults.
type Config struct {
	// Node is the consensus node this manager syncs and serves. Required.
	Node *blockchain.Node
	// Network names the network in handshakes; peers on a different
	// network (or a different genesis) are refused. Default "hashcore".
	Network string
	// Agent is the free-form version string sent in handshakes.
	// Default "hcp2p/1".
	Agent string
	// ListenAddr accepts inbound peers when non-empty (use port 0 to let
	// the OS pick; see Addr).
	ListenAddr string
	// MaxPeers bounds concurrent sessions (inbound + outbound).
	// Default 16.
	MaxPeers int
	// PingInterval is the keepalive period. Default wire's 15s; negative
	// disables (tests).
	PingInterval time.Duration
	// SyncTimeout abandons an unanswered sync request and restarts the
	// peer's sync from scratch. Default 30s.
	SyncTimeout time.Duration
	// headersPerPage bounds one requested header page. Default (and
	// cap) MaxHeadersPerMsg; only tests make it smaller.
	headersPerPage int
	// blocksPerBatch bounds one body download batch — the sync engine's
	// in-flight window. Default (and cap) MaxBlocksPerMsg; only tests
	// make it smaller.
	blocksPerBatch int
	// ReconnectWait and ReconnectMax shape the outbound dialer's
	// exponential backoff. Defaults 1s / 30s.
	ReconnectWait time.Duration
	ReconnectMax  time.Duration
	// HandshakeTimeout bounds the hello exchange, so a peer that
	// connects and never speaks cannot hold a session slot open.
	// Default wire's 10s.
	HandshakeTimeout time.Duration
	// MsgRate bounds each peer's inbound messages per second at the
	// wire layer; a peer exceeding it is disconnected and penalized
	// PointsRateLimited. Default 500 (bursts to 4x MsgRate); negative
	// disables the limit.
	MsgRate float64
	// BanThreshold is the misbehavior score at which a host is banned.
	// Default 100 (one invalid block); negative disables scoring and
	// bans entirely.
	BanThreshold int
	// BanDuration is how long a ban lasts. Default 10m.
	BanDuration time.Duration
	// MaxInboundPerHost caps concurrent inbound sessions per remote
	// host, so one machine cannot fill the peer table from many ports.
	// Default 2.
	MaxInboundPerHost int
	// OutboundReserved holds back this many peer slots for outbound
	// sessions: inbound peers may fill at most MaxPeers-OutboundReserved
	// slots, so an eclipse attacker connecting in cannot crowd out the
	// node's own dials. Default MaxPeers/4 clamped to [1,4] (0 when
	// MaxPeers is 1); negative disables the reserve.
	OutboundReserved int
	// Dial opens outbound connections; nil means TCP. Swap in a
	// simnet host's DialFunc to run the manager inside the lab.
	Dial func(addr string, timeout time.Duration) (net.Conn, error)
	// Listen binds the inbound listener; nil means TCP.
	Listen func(addr string) (net.Listener, error)
	// Logf receives manager events; nil means log.Printf.
	Logf func(format string, args ...any)
	// Metrics, when non-nil, registers the p2p_* instrument family:
	// message/byte/frame counters by direction and type, peer gauges,
	// handshake failures, rate-limit disconnects, misbehavior points,
	// bans, and sync progress counters.
	Metrics *telemetry.Registry
	// Journal, when non-nil, receives peer lifecycle events: connects,
	// disconnects, and bans.
	Journal *telemetry.Journal
}

func (c *Config) fillDefaults() error {
	if c.Node == nil {
		return errors.New("p2p: config needs a node")
	}
	if c.Network == "" {
		c.Network = "hashcore"
	}
	if c.Agent == "" {
		c.Agent = "hcp2p/1"
	}
	if c.MaxPeers < 1 {
		c.MaxPeers = 16
	}
	if c.SyncTimeout <= 0 {
		c.SyncTimeout = 30 * time.Second
	}
	if c.headersPerPage < 1 || c.headersPerPage > MaxHeadersPerMsg {
		c.headersPerPage = MaxHeadersPerMsg
	}
	if c.blocksPerBatch < 1 || c.blocksPerBatch > MaxBlocksPerMsg {
		c.blocksPerBatch = MaxBlocksPerMsg
	}
	if c.ReconnectWait <= 0 {
		c.ReconnectWait = time.Second
	}
	if c.ReconnectMax <= 0 {
		c.ReconnectMax = 30 * time.Second
	}
	if c.MsgRate == 0 {
		c.MsgRate = 500
	}
	if c.MsgRate < 0 {
		c.MsgRate = 0
	}
	if c.BanThreshold == 0 {
		c.BanThreshold = 100
	}
	if c.BanDuration <= 0 {
		c.BanDuration = 10 * time.Minute
	}
	if c.MaxInboundPerHost < 1 {
		c.MaxInboundPerHost = 2
	}
	if c.OutboundReserved == 0 {
		c.OutboundReserved = c.MaxPeers / 4
		if c.OutboundReserved < 1 {
			c.OutboundReserved = 1
		}
		if c.OutboundReserved > 4 {
			c.OutboundReserved = 4
		}
	}
	if c.OutboundReserved < 0 {
		c.OutboundReserved = 0
	} else if c.OutboundReserved >= c.MaxPeers {
		c.OutboundReserved = c.MaxPeers - 1
	}
	if c.Dial == nil {
		c.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	if c.Listen == nil {
		c.Listen = func(addr string) (net.Listener, error) {
			return net.Listen("tcp", addr)
		}
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return nil
}

// Manager owns a node's peer set: it accepts inbound sessions, keeps
// persistent outbound sessions alive with reconnect backoff, announces
// every tip change to all peers, and runs one sync engine per peer.
// Create with New, start with Start, stop with Close.
type Manager struct {
	cfg     Config
	node    *blockchain.Node
	genesis string // hex, pinned in handshakes
	scores  *scoreboard
	met     *p2pMetrics        // nil instruments when telemetry is disabled
	journal *telemetry.Journal // nil-safe
	tally   *wire.ConnTally    // shared byte/frame accounting for all sessions

	mu      sync.Mutex
	ln      net.Listener
	peers   map[*peer]struct{}
	pending int // inbound conns still in their handshake
	started bool
	closed  bool

	cancelTips func()
	quit       chan struct{}
	wg         sync.WaitGroup
}

// StartNetworkCfg is the command-line bring-up the daemons share: build a
// manager from cfg, start it, and keep a persistent session to every
// address in the comma-separated connect list.
func StartNetworkCfg(cfg Config, connectCSV string) (*Manager, error) {
	m, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if err := m.Start(); err != nil {
		return nil, err
	}
	for _, addr := range strings.Split(connectCSV, ",") {
		if addr = strings.TrimSpace(addr); addr != "" {
			m.Connect(addr)
		}
	}
	return m, nil
}

// New assembles a manager. Start must be called to begin serving.
func New(cfg Config) (*Manager, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	m := &Manager{
		cfg:     cfg,
		node:    cfg.Node,
		genesis: hashToHex(cfg.Node.GenesisID()),
		scores:  newScoreboard(cfg.BanThreshold, cfg.BanDuration, scoreHalfLife),
		peers:   make(map[*peer]struct{}),
		quit:    make(chan struct{}),
		journal: cfg.Journal,
		tally:   &wire.ConnTally{},
	}
	m.met = registerP2PMetrics(cfg.Metrics, m)
	return m, nil
}

// countPeers counts live sessions in one direction (the p2p_peers
// gauge).
func (m *Manager) countPeers(inbound bool) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for p := range m.peers {
		if p.inbound == inbound {
			n++
		}
	}
	return n
}

// Start binds the listener (when configured) and starts the tip
// announcer. It returns once the listener is bound; use Addr for the
// resolved address.
func (m *Manager) Start() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.started {
		return errors.New("p2p: manager already started")
	}
	if m.closed {
		return errors.New("p2p: manager closed")
	}
	if m.cfg.ListenAddr != "" {
		ln, err := m.cfg.Listen(m.cfg.ListenAddr)
		if err != nil {
			return err
		}
		m.ln = ln
		m.wg.Add(1)
		go m.acceptLoop(ln)
		m.cfg.Logf("p2p: listening on %s (network %q, genesis %s…)", ln.Addr(), m.cfg.Network, m.genesis[:8])
	}
	events, cancel := m.node.Subscribe(16)
	m.cancelTips = cancel
	m.wg.Add(1)
	go m.announceLoop(events)
	m.started = true
	return nil
}

// Addr returns the bound listen address ("" when not listening or
// before Start).
func (m *Manager) Addr() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.ln == nil {
		return ""
	}
	return m.ln.Addr().String()
}

// PeerCount returns the number of live, handshaken sessions.
func (m *Manager) PeerCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.peers)
}

// PeerInfo describes one live session for observability (lab
// assertions, status endpoints).
type PeerInfo struct {
	// Name is the session's peer address (host:port).
	Name string
	// Host is the score/ban key (Name without the port).
	Host string
	// Inbound reports whether the remote dialed us.
	Inbound bool
}

// Peers snapshots the live, handshaken sessions.
func (m *Manager) Peers() []PeerInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]PeerInfo, 0, len(m.peers))
	for p := range m.peers {
		out = append(out, PeerInfo{Name: p.name, Host: p.host, Inbound: p.inbound})
	}
	return out
}

// Bans returns the currently banned hosts, sorted.
func (m *Manager) Bans() []string { return m.scores.list(time.Now()) }

// Banned reports whether host is currently banned.
func (m *Manager) Banned(host string) bool { return m.scores.banned(host, time.Now()) }

// Score returns host's current (decayed) misbehavior score.
func (m *Manager) Score(host string) float64 { return m.scores.scoreOf(host, time.Now()) }

// Connect maintains a persistent outbound session to addr: dial,
// handshake, sync; on any failure, re-dial with exponential backoff
// until the manager closes. Banned addresses are skipped until the ban
// lapses. It returns immediately.
func (m *Manager) Connect(addr string) {
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		backoff := wire.NewBackoff(m.cfg.ReconnectWait, m.cfg.ReconnectMax)
		for {
			select {
			case <-m.quit:
				return
			default:
			}
			if m.scores.banned(hostOf(addr), time.Now()) {
				m.cfg.Logf("p2p: not dialing banned peer %s", addr)
			} else if nc, err := m.cfg.Dial(addr, dialTimeout); err == nil {
				backoff.Reset()
				if err := m.runPeer(nc, addr, false); err != nil {
					m.cfg.Logf("p2p: session with %s ended: %v", addr, err)
				}
			} else {
				m.cfg.Logf("p2p: dialing %s: %v", addr, err)
			}
			select {
			case <-m.quit:
				return
			case <-time.After(backoff.Next()):
			}
		}
	}()
}

// acceptLoop admits inbound sessions until the listener closes.
func (m *Manager) acceptLoop(ln net.Listener) {
	defer m.wg.Done()
	for {
		nc, err := ln.Accept()
		if err != nil {
			select {
			case <-m.quit:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			m.cfg.Logf("p2p: accept: %v", err)
			select {
			case <-m.quit:
				return
			case <-time.After(50 * time.Millisecond):
			}
			continue
		}
		// Gate before spending a goroutine: banned hosts are dropped on
		// the floor, and the number of conns still inside their
		// handshake is capped so connect-and-stall cannot pile up
		// unbounded sessions behind the handshake timeout.
		addr := nc.RemoteAddr().String()
		if m.scores.banned(hostOf(addr), time.Now()) {
			m.cfg.Logf("p2p: refusing banned host %s", hostOf(addr))
			nc.Close()
			continue
		}
		if !m.reservePending() {
			m.cfg.Logf("p2p: refusing %s: too many pending handshakes", addr)
			nc.Close()
			continue
		}
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			if err := m.runPeer(nc, addr, true); err != nil {
				m.cfg.Logf("p2p: inbound session from %s ended: %v", addr, err)
			}
		}()
	}
}

// reservePending claims a handshake slot; releasePending frees it once
// the hello exchange concludes either way.
func (m *Manager) reservePending() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.pending >= m.cfg.MaxPeers {
		return false
	}
	m.pending++
	return true
}

func (m *Manager) releasePending() {
	m.mu.Lock()
	m.pending--
	m.mu.Unlock()
}

// runPeer drives one session on nc: handshake, validation, registration,
// initial sync kick, dispatch loop. It blocks until the session ends and
// always closes nc. Session-ending protocol violations feed the host's
// misbehavior score on the way out.
func (m *Manager) runPeer(nc net.Conn, name string, inbound bool) error {
	host := hostOf(name)
	wp := wire.NewPeer(nc, wire.PeerConfig{
		Hello: wire.Hello{
			Network: m.cfg.Network,
			Genesis: m.genesis,
			Agent:   m.cfg.Agent,
			Height:  m.node.Height(),
		},
		Conn: wire.ConnConfig{
			MaxLine:      MaxLineBytes,
			WriteTimeout: writeTimeout,
			Tally:        m.tally,
		},
		PingInterval:     m.cfg.PingInterval,
		HandshakeTimeout: m.cfg.HandshakeTimeout,
		MsgRate:          m.cfg.MsgRate,
	})
	remote, err := wp.Handshake()
	if inbound {
		m.releasePending()
	}
	if err != nil {
		wp.Close()
		m.met.handshakeFailures.Inc()
		m.penalize(host, PointsHandshake, err)
		return err
	}
	if remote.Network != m.cfg.Network || remote.Genesis != m.genesis {
		wp.Close()
		m.met.handshakeFailures.Inc()
		m.penalize(host, PointsHandshake, "wrong network or genesis")
		return fmt.Errorf("p2p: peer %s is on network %q genesis %.8s…, want %q %.8s…",
			name, remote.Network, remote.Genesis, m.cfg.Network, m.genesis)
	}

	p := newPeer(m, wp, name, inbound)
	if err := m.addPeer(p); err != nil {
		wp.Close()
		return err
	}
	defer m.removePeer(p)
	m.cfg.Logf("p2p: peer %s connected (agent %q, height %d)", name, remote.Agent, remote.Height)
	m.journal.Emit("peer_connect", map[string]any{
		"peer": name, "inbound": inbound, "agent": remote.Agent,
	})

	// Kick off sync immediately: the remote may be ahead of us right
	// now, and if it is behind, the empty page costs one round trip.
	p.triggerSync()
	err = wp.Run(p.handle)
	if errors.Is(err, wire.ErrRateLimited) {
		m.met.rateLimitDrops.Inc()
	}
	if pts := violationPoints(err); pts > 0 {
		m.penalize(host, pts, err)
	}
	reason := ""
	if err != nil {
		reason = err.Error()
	}
	m.journal.Emit("peer_disconnect", map[string]any{"peer": name, "reason": reason})
	return err
}

// violationPoints maps a session-ending error to the misbehavior score
// it earns (0 for benign endings: graceful close, transport drop).
func violationPoints(err error) int {
	var v *violationError
	switch {
	case err == nil:
		return 0
	case errors.As(err, &v):
		return v.points
	case errors.Is(err, wire.ErrRateLimited):
		return PointsRateLimited
	case errors.Is(err, wire.ErrMalformed):
		return PointsMalformed
	default:
		return 0
	}
}

// penalize adds points to host's misbehavior score; crossing the
// threshold bans the host and drops its live sessions. It reports
// whether the host is now banned.
func (m *Manager) penalize(host string, points int, reason any) bool {
	if m.cfg.BanThreshold < 0 || host == "" {
		return false
	}
	score, banned := m.scores.add(host, points, time.Now())
	m.met.penaltyPoints.Add(uint64(points))
	if !banned {
		m.cfg.Logf("p2p: host %s penalized +%d (score %.0f): %v", host, points, score, reason)
		return false
	}
	m.cfg.Logf("p2p: host %s BANNED for %s (score %.0f): %v", host, m.cfg.BanDuration, score, reason)
	m.met.bans.Inc()
	m.journal.Emit("ban", map[string]any{
		"host": host, "score": score, "for": m.cfg.BanDuration.String(),
	})
	for _, p := range m.snapshotPeers() {
		if p.host == host {
			p.wp.Close()
		}
	}
	return true
}

func (m *Manager) addPeer(p *peer) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errors.New("p2p: manager closed")
	}
	if len(m.peers) >= m.cfg.MaxPeers {
		return fmt.Errorf("p2p: refusing peer %s: at MaxPeers=%d", p.name, m.cfg.MaxPeers)
	}
	if p.inbound {
		inbound, sameHost := 0, 0
		for q := range m.peers {
			if q.inbound {
				inbound++
				if q.host == p.host {
					sameHost++
				}
			}
		}
		if sameHost >= m.cfg.MaxInboundPerHost {
			return fmt.Errorf("p2p: refusing peer %s: %d inbound sessions from host %s already",
				p.name, sameHost, p.host)
		}
		// The outbound reserve is the eclipse defense: however many
		// attackers connect in, the node keeps slots for peers it
		// chose itself.
		if inbound >= m.cfg.MaxPeers-m.cfg.OutboundReserved {
			return fmt.Errorf("p2p: refusing peer %s: inbound slots full (%d of %d, %d reserved for outbound)",
				p.name, inbound, m.cfg.MaxPeers, m.cfg.OutboundReserved)
		}
	}
	m.peers[p] = struct{}{}
	return nil
}

func (m *Manager) removePeer(p *peer) {
	m.mu.Lock()
	delete(m.peers, p)
	m.mu.Unlock()
	p.shutdown()
}

// snapshotPeers returns the live peer set.
func (m *Manager) snapshotPeers() []*peer {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*peer, 0, len(m.peers))
	for p := range m.peers {
		out = append(out, p)
	}
	return out
}

// announceLoop pushes every tip change to every peer. Peers that
// already have the block ignore the inv; peers that don't start a sync
// round — this is how blocks (and reorgs, which are just heavier
// branches) propagate across the network.
func (m *Manager) announceLoop(events <-chan blockchain.TipEvent) {
	defer m.wg.Done()
	for {
		select {
		case <-m.quit:
			return
		case ev, ok := <-events:
			if !ok {
				return
			}
			if ev.Reorg {
				m.cfg.Logf("p2p: local reorg to %x… at height %d — announcing", ev.NewTip[:8], ev.Height)
			}
			inv := InvMsg{Tip: hashToHex(ev.NewTip), Height: ev.Height}
			for _, p := range m.snapshotPeers() {
				p.sendInv(inv)
			}
		}
	}
}

// Close stops the listener, the dialers and every session, and waits
// for all manager goroutines (bounded by ctx). Idempotent.
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	close(m.quit)
	if m.ln != nil {
		m.ln.Close()
	}
	if m.cancelTips != nil {
		m.cancelTips()
	}
	peers := make([]*peer, 0, len(m.peers))
	for p := range m.peers {
		peers = append(peers, p)
	}
	m.mu.Unlock()
	for _, p := range peers {
		p.wp.Close()
	}

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
