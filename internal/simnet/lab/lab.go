// Package lab is the adversarial network laboratory: it assembles
// whole HashCore networks — consensus nodes, p2p managers, and the
// misbehaving peers that attack them — inside one process on a simnet
// fabric, so scenarios that would need a fleet of machines (partitions
// at the hundred-node scale, eclipse attempts, flood-and-ban) run as
// ordinary Go tests.
//
// A Cluster owns N nodes, each a full blockchain.Node plus p2p.Manager
// listening on its own simnet host, wired into a ring-with-chords
// topology. The simnet.Network underneath injects latency, partitions
// and host blackouts; the Adversary type speaks just enough of the wire
// protocol to flood, spam orphans, abuse handshakes, and squat peer
// slots. The scenarios in scenarios.go are the lab's one definition of
// each attack: hcchain -simnet and go test run the same bodies.
package lab

import (
	"context"
	"fmt"
	"time"

	"hashcore/internal/baseline"
	"hashcore/internal/blockchain"
	"hashcore/internal/p2p"
	"hashcore/internal/pow"
	"hashcore/internal/simnet"
	"hashcore/internal/telemetry"
)

// Options shapes a Cluster. The zero value builds a quiet 3-node ring
// with default hardening knobs.
type Options struct {
	// Nodes is the cluster size. Default 3.
	Nodes int
	// Chord adds a second outbound link from node i to node (i+Chord)
	// alongside the ring link to (i+1), cutting the network diameter.
	// 0 defaults to Nodes/3+1 when the cluster is big enough; negative
	// disables (pure ring).
	Chord int
	// Latency is the one-way delay of every connection on the fabric.
	Latency time.Duration
	// P2P overrides manager settings. Node, ListenAddr, Dial, Listen
	// and Logf are filled per node; everything else is passed through
	// (zero values select p2p defaults). SyncTimeout, ReconnectWait and
	// ReconnectMax default to test-speed values when zero.
	P2P p2p.Config
	// MaxOrphans / MaxOrphansPerPeer bound each node's orphan pool.
	MaxOrphans        int
	MaxOrphansPerPeer int
	// Logf receives cluster and manager events. Default discards.
	Logf func(format string, args ...any)
}

// Node is one cluster member: a consensus node and its manager, living
// on its own simnet host. Every node carries its own telemetry registry
// and event journal, so scenarios can assert on the same counters an
// operator would scrape from a real daemon.
type Node struct {
	Name    string
	Host    *simnet.Host
	Chain   *blockchain.Node
	Mgr     *p2p.Manager
	Reg     *telemetry.Registry
	Journal *telemetry.Journal
}

// Addr returns the node's listen address on the fabric.
func (n *Node) Addr() string { return n.Name + ":1" }

// Cluster is a whole in-process network.
type Cluster struct {
	Net   *simnet.Network
	Nodes []*Node

	params blockchain.Params
	miner  *pow.Miner
	logf   func(format string, args ...any)
}

// New builds and starts a cluster: every node listening, ring(+chord)
// dialers running. Callers must Close it.
func New(opts Options) (*Cluster, error) {
	if opts.Nodes < 1 {
		opts.Nodes = 3
	}
	if opts.Chord == 0 && opts.Nodes >= 6 {
		opts.Chord = opts.Nodes/3 + 1
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	fabric := simnet.New(simnet.Config{Latency: opts.Latency})
	c := &Cluster{
		Net:    fabric,
		params: blockchain.DefaultParams(),
		miner:  pow.NewMiner(baseline.SHA256d{}, 1),
		logf:   opts.Logf,
	}

	for i := 0; i < opts.Nodes; i++ {
		name := fmt.Sprintf("n%d", i)
		reg := telemetry.NewRegistry()
		journal := telemetry.NewJournal(256)
		chain, err := blockchain.OpenNode(blockchain.NodeConfig{
			Params:            c.params,
			Hasher:            baseline.SHA256d{},
			MaxOrphans:        opts.MaxOrphans,
			MaxOrphansPerPeer: opts.MaxOrphansPerPeer,
			Metrics:           reg,
			Journal:           journal,
		})
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("lab: node %s: %w", name, err)
		}
		host := fabric.Host(name)
		cfg := opts.P2P
		cfg.Node = chain
		cfg.ListenAddr = name + ":1"
		cfg.Dial = host.DialFunc()
		cfg.Listen = host.ListenFunc()
		cfg.Metrics = reg
		cfg.Journal = journal
		cfg.Logf = func(format string, args ...any) { opts.Logf("["+name+"] "+format, args...) }
		if cfg.PingInterval == 0 {
			cfg.PingInterval = -1 // keepalives are noise at lab scale
		}
		if cfg.SyncTimeout == 0 {
			cfg.SyncTimeout = 5 * time.Second
		}
		if cfg.ReconnectWait == 0 {
			cfg.ReconnectWait = 50 * time.Millisecond
		}
		if cfg.ReconnectMax == 0 {
			cfg.ReconnectMax = time.Second
		}
		mgr, err := p2p.New(cfg)
		if err != nil {
			chain.Close()
			c.Close()
			return nil, fmt.Errorf("lab: node %s: %w", name, err)
		}
		if err := mgr.Start(); err != nil {
			chain.Close()
			c.Close()
			return nil, fmt.Errorf("lab: node %s: %w", name, err)
		}
		c.Nodes = append(c.Nodes, &Node{
			Name: name, Host: host, Chain: chain, Mgr: mgr,
			Reg: reg, Journal: journal,
		})
	}

	// Ring plus optional chord: every node keeps persistent outbound
	// sessions so partitions heal by reconnect-and-sync.
	n := len(c.Nodes)
	for i, node := range c.Nodes {
		if n > 1 {
			node.Mgr.Connect(c.Nodes[(i+1)%n].Addr())
		}
		if opts.Chord > 1 && n > opts.Chord {
			node.Mgr.Connect(c.Nodes[(i+opts.Chord)%n].Addr())
		}
	}
	return c, nil
}

// Genesis returns the shared genesis id in wire (hex) form.
func (c *Cluster) Genesis() string {
	id := c.Nodes[0].Chain.GenesisID()
	return fmt.Sprintf("%x", id[:])
}

// Names returns every node's host name (for Partition groups).
func (c *Cluster) Names() []string {
	out := make([]string, len(c.Nodes))
	for i, n := range c.Nodes {
		out[i] = n.Name
	}
	return out
}

// Mine extends node i's best chain by count blocks and returns the new
// tip. The default params' easy target keeps this fast even at -race.
func (c *Cluster) Mine(i, count int) (blockchain.Hash, error) {
	node := c.Nodes[i].Chain
	for b := 0; b < count; b++ {
		txs := [][]byte{{byte(i), byte(b), byte(b >> 8), 'L'}}
		header, _, err := node.Template(node.TipHeader().Time+30, func(_ int, _ uint64) blockchain.Hash {
			return blockchain.MerkleRoot(txs)
		})
		if err != nil {
			return blockchain.Hash{}, err
		}
		target, err := pow.CompactToTarget(header.Bits)
		if err != nil {
			return blockchain.Hash{}, err
		}
		res, err := c.miner.Mine(context.Background(), header.MiningPrefix(), target, 0, 0)
		if err != nil {
			return blockchain.Hash{}, err
		}
		header.Nonce = res.Nonce
		if _, err := node.AddBlock(blockchain.Block{Header: header, Txs: txs}); err != nil {
			return blockchain.Hash{}, err
		}
	}
	return node.TipID(), nil
}

// Converged reports whether every node's tip equals want.
func (c *Cluster) Converged(want blockchain.Hash) bool { return allAt(c.Nodes, want) }

// WaitConverged polls until every node's tip is want or the timeout
// passes, returning whether convergence happened.
func (c *Cluster) WaitConverged(want blockchain.Hash, timeout time.Duration) bool {
	return waitUntil(timeout, func() bool { return c.Converged(want) })
}

// allAt reports whether every one of nodes has tip want.
func allAt(nodes []*Node, want blockchain.Hash) bool {
	for _, n := range nodes {
		if n.Chain.TipID() != want {
			return false
		}
	}
	return true
}

// Metric reads one node's instrument by name, summed across label sets
// (0 when unregistered) — the scenario-side view of what /metrics would
// export on that node.
func (c *Cluster) Metric(i int, name string) float64 {
	v, _ := c.Nodes[i].Reg.Value(name)
	return v
}

// Close tears the whole cluster down.
func (c *Cluster) Close() {
	for _, n := range c.Nodes {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := n.Mgr.Close(ctx); err != nil {
			c.logf("lab: closing %s: %v", n.Name, err)
		}
		cancel()
		n.Chain.Close()
	}
}
